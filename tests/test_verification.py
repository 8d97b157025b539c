"""Residual grids and the exponential-mix reference solutions."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from lie_thomas.determining import ThomasParams
from lie_thomas.families import case1_solution, case21b_solution, case22_solution
from lie_thomas.hyperdual import HyperDualError, HyperDualRow, affine, exp_, lift, log_
from lie_thomas.verification import (
    BLOCK,
    GridSpec,
    GridReport,
    VerificationError,
    _residuals,
    oracle_solution,
    oracle_solutions,
    residual,
    residual_grid,
)
from oracles import HyperDual

F = Fraction
P = ThomasParams(1, 1, 1)


def test_gridspec_points():
    g = GridSpec(0.0, 1.0, 3, 0.0, 2.0, 2)
    pts = list(g.points())
    assert len(pts) == 6
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 2.0)


@pytest.mark.parametrize("bounds", [
    (0.0, 1.0, 1, 0.0, 1.0, 3),  # one column would divide by nx - 1 = 0
    (0.0, 1.0, 3, 0.0, 1.0, 0),
    (0.0, math.inf, 3, 0.0, 1.0, 3),
    (0.0, 1.0, 3, math.nan, 1.0, 3),
    (1.0, 1.0, 3, 0.0, 1.0, 3),
    (0.0, 1.0, 3, 2.0, -2.0, 3),
])
def test_gridspec_rejects_degenerate_grids(bounds):
    with pytest.raises(VerificationError):
        GridSpec(*bounds)


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("bounds", [
    (-1e308, 1e308, 4, -1.0, 1.0, 4),  # the span hi - lo overflows
    (-1.0, 1.0, 4, -_MAX, _MAX, 2),
    (0.0, 1e308, 3, 0.0, 1.0, 3),  # a finite span, but span * (n - 1) overflows
    (0.0, 1.0, 3, 0.0, _MAX, 7),
])
def test_gridspec_rejects_grids_with_a_tick_that_is_not_finite(bounds):
    with pytest.raises(VerificationError, match="overflows a float"):
        GridSpec(*bounds)


@pytest.mark.parametrize("bounds", [
    (0.0, _MAX, 2, -_MAX, 0.0, 2),
    (-1e308, 0.0, 2, 0.0, 1e307, 11),
    (-2.0, 2.0, 50, -2.0, 2.0, 50),
])
def test_gridspec_keeps_the_ticks_of_a_finite_grid(bounds):
    """Every tick is finite, and each is lo + (hi - lo)*i/(n - 1), bit for bit."""
    grid = GridSpec(*bounds)
    xs = [x for x, _ in grid.rows()]
    ys = next(grid.rows())[1]
    for ticks, (lo, hi, n) in ((xs, bounds[:3]), (ys, bounds[3:])):
        assert all(map(math.isfinite, ticks))
        assert list(ticks) == [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_residual_on_oracle_is_zero():
    u = oracle_solution(P, [(F(1), F(2))])
    r = residual(u, 0.3, -0.4, P)
    assert abs(r) < 1e-12


def test_residual_detects_non_solution():
    r = residual(lambda x, y: x * y, 1.0, 1.0, P)
    # u = xy: u_xy + u_x + u_y + u_x u_y = 1 + y + x + xy -> 4 at (1,1)
    assert abs(r - 4.0) < 1e-12


def test_residual_wraps_plain_returns():
    r = residual(lambda x, y: 2.5, 0.1, 0.2, P)
    assert r == 0.0


def test_residual_at_a_point_is_its_row_residual():
    """residual() evaluates a row of one; it gives each in-domain point the
    bits the whole row's pass gives it."""
    fams = [case22_solution(P, a1=F(2)), case21b_solution(P, a1=F(-1), a2=F(-1), A0=F(0)),
            case1_solution(P, a1=F(0), a2=F(0), c0=F(1)),
            oracle_solution(P, [(0.5, 1.0), (-2.0, 0.3)])]
    for fam in fams:
        in_domain = getattr(fam, "domain", lambda x, y: True)
        compared = 0
        for x, ys in GridSpec(-2.0, -0.1, 7, -2.0, -0.1, 7).rows():
            kept = [y for y in ys if in_domain(x, y)]
            rows = _residuals(fam, [x] * len(kept), kept, *P.floats())
            points = [residual(fam, x, y, P) for y in kept]
            assert list(map(float.hex, points)) == list(map(float.hex, rows)), (fam, x)
            compared += len(kept)
        assert compared > 30


def test_oracle_dispersion_locus():
    # each mode (lam, mu) satisfies mu = -alpha lam / (lam + beta)
    u = oracle_solution(P, [(F(2), F(3)), (F(-1, 2), F(1))])
    for lam, mu, c in u.modes:
        assert mu * (lam + 1) == -lam
        assert c > 0


def test_oracle_rejects_bad_modes():
    with pytest.raises(VerificationError):
        oracle_solution(P, [(F(-1), F(1))])  # lam = -beta pole
    with pytest.raises(VerificationError):
        oracle_solution(P, [(F(1), F(-2))])  # weight must be positive


@pytest.mark.parametrize("mode", [
    (1.0, math.nan),  # passes c <= 0, which NaN compares false to
    (math.inf, 1.0),  # mu = -alpha*inf/inf is NaN
    (-math.inf, 1.0),
    (math.nan, 1.0),
    (1.0, math.inf),  # an infinite weight makes the log infinite
], ids=["nan-weight", "inf-lambda", "minus-inf-lambda", "nan-lambda", "inf-weight"])
def test_oracle_rejects_modes_that_are_not_finite(mode):
    """Each of these built a solution whose grid read inf; finite modes
    beside it do not let it through."""
    with pytest.raises(VerificationError, match="finite"):
        oracle_solution(P, [(0.5, 1.0), mode])


def test_oracle_solutions_deterministic():
    a = oracle_solutions(P, count=3, rng=random.Random(7))
    b = oracle_solutions(P, count=3, rng=random.Random(7))
    assert len(a) == len(b) == 3
    for ua, ub in zip(a, b):
        assert ua.modes == ub.modes
    # mode counts cycle so multi-mode mixes always appear
    assert {len(u.modes) for u in a} == {1, 2, 3}


def test_oracle_residual_grid():
    for u in oracle_solutions(P, count=3):
        worst = 0.0
        for x in (-1.0, 0.0, 0.7):
            for y in (-0.9, 0.2, 1.1):
                worst = max(worst, abs(residual(u, x, y, P)))
        assert worst < 1e-10


def test_residual_grid_report():
    fam = case22_solution(P, a1=F(2))
    rep = residual_grid(fam, grid=GridSpec(-1, 1, 8, -1, 1, 8))
    assert isinstance(rep, GridReport)
    assert rep.evaluated == 64
    assert rep.skipped == 0
    assert rep.max_residual < 1e-12
    assert "max |residual|" in str(rep)


def test_residual_grid_respects_domain():
    fam = case22_solution(P, a1=F(2))
    object.__setattr__(fam, "domain", lambda x, y: x > 0)
    rep = residual_grid(fam, grid=GridSpec(-1, 1, 4, -1, 1, 4))
    assert rep.evaluated == 8 and rep.skipped == 8


def test_empty_domain_raises():
    fam = case22_solution(P, a1=F(2))
    object.__setattr__(fam, "domain", lambda x, y: False)
    with pytest.raises(VerificationError):
        residual_grid(fam, grid=GridSpec(-1, 1, 4, -1, 1, 4))


def test_residual_grid_flags_fake_solution():
    fake = lambda x, y: x * y

    class Shim:
        params = P
        domain = staticmethod(lambda x, y: True)

        def __call__(self, x, y):
            return fake(x, y)

    rep = residual_grid(Shim(), grid=GridSpec(0.5, 1.5, 4, 0.5, 1.5, 4))
    assert rep.max_residual > 1.0


def test_residual_grid_fails_non_finite_residuals():
    fam = case22_solution(P, a1=F(2))
    object.__setattr__(fam, "evaluator", lambda x, y: x * math.nan)
    rep = residual_grid(fam, grid=GridSpec(-1, 1, 5, -1, 1, 5))
    assert rep.max_residual == math.inf
    assert rep.worst_point == (-1.0, -1.0)  # the first non-finite point
    assert rep.evaluated == 25


def test_one_non_finite_residual_outranks_finite_ones():
    fam = case22_solution(P, a1=F(2))
    good = fam.evaluator
    # a factor that is NaN where x > 0.9, read off the real parts by lift()
    # because an evaluator must not compare a hyper-dual
    nan_right = lambda v: (math.nan if v > 0.9 else 1.0, 0.0, 0.0)
    object.__setattr__(fam, "evaluator", lambda x, y: good(x, y) * lift(x, nan_right))
    rep = residual_grid(fam, grid=GridSpec(-1, 1, 5, -1, 1, 5))
    assert rep.max_residual == math.inf
    assert rep.worst_point == (1.0, -1.0)


@pytest.mark.parametrize("evaluator, error", [
    (lambda x, y: HyperDual(0.5, 1.0) * HyperDual(0.5, 0.0, 1.0), TypeError),  # not a row
    (lambda x, y: HyperDualRow.seed([0.5], [0.5])[0] * 2.0, ValueError),  # one point only
], ids=["scalar", "short-row"])
def test_residual_grid_refuses_a_result_that_is_not_the_row(evaluator, error):
    """Neither result may pass as a verified constant or leave points unchecked."""
    fam = case22_solution(P, a1=F(2))
    object.__setattr__(fam, "evaluator", evaluator)
    with pytest.raises(error):
        residual_grid(fam, grid=GridSpec(-1, 1, 4, -1, 1, 4))


def _pointwise_residual_grid(family, p=None, grid=None):
    """residual_grid as it was before row batches, the reference for them:
    one evaluation per in-domain point, on rows of one, in grid order."""
    if p is None:
        p = family.params
    if grid is None:
        grid = GridSpec()
    in_domain = getattr(family, "domain", None) or (lambda x, y: True)
    alpha, beta, gamma = p.floats()
    worst = -1.0
    worst_pt = (math.nan, math.nan)
    evaluated = skipped = 0
    for i in range(grid.nx):
        x = grid.xmin + (grid.xmax - grid.xmin) * i / (grid.nx - 1)
        for j in range(grid.ny):
            y = grid.ymin + (grid.ymax - grid.ymin) * j / (grid.ny - 1)
            if not in_domain(x, y):
                skipped += 1
                continue
            val = family(*HyperDualRow.seed([x], [y]))
            if not isinstance(val, HyperDualRow):  # a constant
                val = HyperDualRow([float(val)], [0.0], [0.0], [0.0])
            (d_x,), (d_y,), (d_xy,) = val.dx, val.dy, val.dxy
            r = abs(d_xy + alpha * d_x + beta * d_y + gamma * d_x * d_y)
            evaluated += 1
            if not math.isfinite(r):
                r = math.inf
            if r > worst:
                worst, worst_pt = r, (x, y)
    worst = max(worst, 0.0)
    if evaluated == 0:
        raise VerificationError("domain excludes every grid point")
    return GridReport(worst, worst_pt, evaluated, skipped)


def _composed_oracle(p, modes):
    """oracle_solution with each exponent composed as lam*x + mu*y, the
    reference for its affine() form."""
    gamma = p.floats()[2]
    checked = oracle_solution(p, modes).modes

    def u(x, y):
        total = 0.0
        for lam, mu, c in checked:
            total = total + c * exp_(lam * x + mu * y)
        return log_(total) / gamma

    return u


def test_oracle_grid_reports_equal_the_composed_exponents():
    grids = (GridSpec(-2.0, 2.0, 20, -2.0, 2.0, 20), GridSpec(-0.5, 3.0, 20, -3.0, 0.25, 20))
    for p, seed_ in ((P, 11), (ThomasParams(2, F(-1, 2), 3), 12), (ThomasParams(F(-3, 4), 2, 1), 13)):
        for u in oracle_solutions(p, count=6, rng=random.Random(seed_)):
            ref = _composed_oracle(p, [(lam, c) for lam, _, c in u.modes])
            for grid in grids:
                assert residual_grid(u, p, grid) == _pointwise_residual_grid(ref, p, grid), (
                    p, u.modes)


@pytest.mark.parametrize("fam, bounds, nx", [
    (case1_solution(P, a1=F(0), a2=F(0), c0=F(1)), (-2.0, -0.1), 25),
    (case21b_solution(P, a1=F(-1), a2=F(-1), A0=F(0)), (-2.0, 2.0), 200),
], ids=["case1", "case21b"])
def test_residual_grid_holds_one_block_at_a_time(fam, bounds, nx):
    """With rows of 200 points a block holds two rows, and the allocation
    peak stays under 1 MiB (about 0.25-0.45 MiB); one batch of the grid's
    5000 or more points would hold 2.5 MiB or more.  case1 runs 25 rows
    only, because tracing every allocation makes its series sums about 15
    times slower."""
    grid = GridSpec(bounds[0], bounds[1], nx, *bounds, 200)
    tracemalloc.start()
    try:
        report = residual_grid(fam, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.evaluated > 4000
    assert peak < 2**20, peak


# grids that meet the block size in each way: 37x41 cuts its rows at block
# edges (12 whole rows of 41 fill 492 of 512 points), 3x900 has rows longer
# than a block, and 120x90 makes many blocks
BLOCK_GRIDS = (GridSpec(-2.0, 2.0, 37, -2.0, 2.0, 41), GridSpec(-2.0, 2.0, 3, -2.0, 2.0, 900),
               GridSpec(-2.5, 1.5, 120, -1.5, 2.5, 90))


def _bits(report):
    """A grid report as float.hex of its max and worst point, and its counts."""
    return (report.max_residual.hex(), tuple(map(float.hex, report.worst_point)),
            report.evaluated, report.skipped)


def _grid_bits(u, p, grid, check=residual_grid):
    """_bits of the report, or the message of the VerificationError raised."""
    try:
        return _bits(check(u, p, grid))
    except VerificationError as exc:  # an empty domain must be empty for both
        return str(exc)


class _Shim:
    """A family by duck type: params, a domain, and a call."""

    def __init__(self, u, domain, params=P):
        self.u, self.domain, self.params = u, domain, params

    def __call__(self, x, y):
        return self.u(x, y)


def _shims():
    """Evaluators that are no family: a non-solution (a residual that varies
    from point to point), a constant (every residual ties at zero), one with
    a domain that drops whole blocks, and one whose domain admits nothing."""
    fake = lambda x, y: x * y + 0.25 * x * x
    return [
        _Shim(fake, lambda x, y: True),
        _Shim(lambda x, y: 2.5, None),
        _Shim(fake, lambda x, y: x * x + y * y < 1.0 or x > 1.2),
        _Shim(fake, lambda x, y: False),
    ]


def test_block_reports_of_oracle_mixes_and_shims_equal_the_pointwise_kernel(rng):
    """The block report of each oracle mix and each shim equals the one
    point at a time report bit for bit on every block grid."""
    drawn = ThomasParams(F(rng.randint(-6, 6), 2), F(rng.randint(1, 6), 3), F(rng.randint(1, 4)))
    for p in (P, drawn):
        mixes = oracle_solutions(p, count=3, rng=random.Random(rng.getrandbits(32)))
        for u in mixes + [s for s in _shims() if p is P]:
            for grid in BLOCK_GRIDS:
                want = _grid_bits(u, p, grid, _pointwise_residual_grid)
                assert _grid_bits(u, p, grid) == want, (p, getattr(u, "modes", u), grid)


def test_blocks_take_whole_rows_up_to_the_block_size():
    """Each evaluation takes whole rows while their in-domain points and the
    next row's full length fit in BLOCK; a longer row is a block of its own,
    and no block is empty."""
    sizes = []

    def counting(x, y):
        sizes.append(len(y.value))
        return x * y

    for grid, want in ((BLOCK_GRIDS[0], [12 * 41] * 3 + [41]),
                       (BLOCK_GRIDS[1], [900] * 3),
                       (GridSpec(-2.0, 2.0, 4, -2.0, 2.0, BLOCK), [BLOCK] * 4)):
        sizes.clear()
        report = residual_grid(counting, P, grid)
        assert sizes == want and report.evaluated == sum(want), (grid, sizes)
    sizes.clear()  # the domain admits half of each row; the next row's full length still counts
    residual_grid(_Shim(counting, lambda x, y: y < 0.0), P, BLOCK_GRIDS[0])
    assert sizes == [20 * 24, 20 * 13], sizes


def test_a_non_finite_residual_in_a_later_block_reports_inf_at_its_point():
    """The NaN band starts after the first block; the finite residuals
    around it in its block and in earlier blocks do not hide it."""
    nan_at = lambda v: (math.nan if 0.9 < v < 1.0 else 1.0, 0.0, 0.0)
    u = lambda x, y: (x * y + 3.0 * x * x) * lift(affine(0.5, x, 0.5, y, 0.0), nan_at)
    for grid in BLOCK_GRIDS:
        want = _pointwise_residual_grid(u, P, grid)
        assert want.max_residual == math.inf
        assert want.worst_point[0] > grid.xmin + (grid.xmax - grid.xmin) / 3, grid
        assert _bits(residual_grid(u, P, grid)) == _bits(want), grid


def test_a_failing_row_in_a_later_block_raises_the_pointwise_message():
    """log of a non-positive value first happens in row 21 of 37, inside the
    second block; the message names the first failing point's value."""
    u = lambda x, y: log_(affine(-1.0, x, 0.1, y, 0.5))
    grid = BLOCK_GRIDS[0]
    with pytest.raises(HyperDualError) as want:
        _pointwise_residual_grid(u, P, grid)
    with pytest.raises(HyperDualError) as got:
        residual_grid(u, P, grid)
    assert str(got.value) == str(want.value)
    assert "-0.0333" in str(want.value), want.value  # 0.5 - 1/3 - 0.2 at row 21


def test_within_a_block_the_operation_reached_first_raises():
    """Row x = -1 fails at log and row x = 1 fails earlier in the evaluator,
    at its lift.  Point by point, or row by row, row x = -1 raises first;
    in one block the lift raises before any log is taken."""

    def refusing(v):
        if v > 0.5:
            raise HyperDualError("lift refuses %r" % v)
        return v, 1.0, 0.0

    u = lambda x, y: log_(lift(x, refusing))
    grid = GridSpec(-1.0, 1.0, 4, -1.0, 1.0, 4)
    with pytest.raises(HyperDualError, match="log of non-positive"):
        _pointwise_residual_grid(u, P, grid)
    with pytest.raises(HyperDualError, match="lift refuses 1.0"):
        residual_grid(u, P, grid)
