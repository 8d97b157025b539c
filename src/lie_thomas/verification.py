"""Numerical verification of candidate solutions on grids.

The residual of u_xy + alpha u_x + beta u_y + gamma u_x u_y is evaluated
with second-order dual numbers, so there is no finite-difference error in
the check itself: any residual is a genuine property of the evaluator.

``residual_grid`` gathers the in-domain points of consecutive whole grid
rows into blocks of at most ``BLOCK`` points (a block takes the next row
while its points and the row's full length fit, and a longer row is a
block of its own) and evaluates a family once per block, on a HyperDualRow
seeded with each point's x and y.  Within a block the first operation that
fails on any point raises, so where two rows of one block fail at
different operations, the operation the evaluator reaches first raises,
even if its row comes later in the grid.  ``residual`` evaluates one point
as a row of one.  Both build their residuals by ``_residuals``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import DomainError, Record
from .hyperdual import HyperDualRow, affine, exp_, log_
from .params import ThomasParams


class VerificationError(DomainError, ValueError):
    pass


class GridSpec(Record):
    xmin: float = -2.0
    xmax: float = 2.0
    nx: int = 50
    ymin: float = -2.0
    ymax: float = 2.0
    ny: int = 50

    def __post_init__(self):
        bounds = (self.xmin, self.xmax, self.ymin, self.ymax)
        if not (self.nx >= 2 and self.ny >= 2 and all(map(math.isfinite, bounds))
                and self.xmin < self.xmax and self.ymin < self.ymax):
            raise VerificationError("grid needs nx, ny >= 2 and finite bounds with min < max")
        # each tick is lo + (hi - lo)*i/(n - 1), monotone in i from lo, so
        # every tick is finite when the last one is; it overflows where the
        # span or the span times n - 1 does
        for lo, hi, n in ((self.xmin, self.xmax, self.nx), (self.ymin, self.ymax, self.ny)):
            if not math.isfinite(lo + (hi - lo) * (n - 1) / (n - 1)):
                raise VerificationError("grid span %g to %g in %d ticks overflows a float"
                                        % (lo, hi, n))

    def rows(self):
        """(x, ys) for each grid x in turn, ys holding every grid y."""
        ys = _ticks(self.ymin, self.ymax, self.ny)
        return ((x, ys) for x in _ticks(self.xmin, self.xmax, self.nx))

    def points(self):
        return ((x, y) for x, ys in self.rows() for y in ys)


def _ticks(lo: float, hi: float, n: int):
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


# in-domain points per evaluation in residual_grid; Case 1's sums memo keeps
# a whole block's sums only while this is at most its 1024 entries
BLOCK = 512


def residual(u, x: float, y: float, p: ThomasParams) -> float:
    """PDE residual of the evaluator u at one point, a row of one."""
    return _residuals(u, (x,), (y,), *p.floats())[0]


def _residuals(u, xs, ys, alpha, beta, gamma):
    """The residual at each point (x, y) of zip(xs, ys), from one evaluation
    of u."""
    val = u(*HyperDualRow.seed(xs, ys))
    if not isinstance(val, HyperDualRow):  # a constant
        zeros = [0.0] * len(ys)
        val = HyperDualRow([float(val)] * len(ys), zeros, zeros, zeros)
    if len(val.dxy) != len(ys):
        raise ValueError("the evaluator gave %d points for %d" % (len(val.dxy), len(ys)))
    return [d_xy + alpha * d_x + beta * d_y + gamma * d_x * d_y
            for d_x, d_y, d_xy in zip(val.dx, val.dy, val.dxy)]


class GridReport(Record):
    max_residual: float
    worst_point: tuple
    evaluated: int
    skipped: int

    def __str__(self):
        return "max |residual| = %.3e at (%.4f, %.4f) over %d points (%d outside domain)" % (
            self.max_residual,
            self.worst_point[0],
            self.worst_point[1],
            self.evaluated,
            self.skipped,
        )


def residual_grid(family, p: ThomasParams = None, grid: GridSpec = None) -> GridReport:
    """Max |residual| of a family, or of an evaluator u(x, y) with ``p`` given,
    over the domain-filtered grid, evaluated once per block of whole rows; a
    non-finite residual reports as inf at the first point that gave one."""
    if p is None:
        p = family.params
    if grid is None:
        grid = GridSpec()
    in_domain = getattr(family, "domain", None) or (lambda x, y: True)
    coefficients = p.floats()
    worst = -1.0
    worst_pt = (math.nan, math.nan)
    evaluated = skipped = 0
    xs, ys = [], []
    for x, row in grid.rows():
        # a block is evaluated before the domain reads a row it cannot hold,
        # so a domain may keep what it computes until the evaluator reads it
        if xs and len(xs) + len(row) > BLOCK:
            worst, worst_pt = _block_worst(family, xs, ys, coefficients, worst, worst_pt)
            xs, ys = [], []
        kept = [y for y in row if in_domain(x, y)]
        skipped += len(row) - len(kept)
        evaluated += len(kept)
        xs += [x] * len(kept)
        ys += kept
    if xs:
        worst, worst_pt = _block_worst(family, xs, ys, coefficients, worst, worst_pt)
    if evaluated == 0:
        raise VerificationError("domain excludes every grid point")
    return GridReport(max(worst, 0.0), worst_pt, evaluated, skipped)


def _block_worst(family, xs, ys, coefficients, worst, worst_pt):
    """(worst, worst_pt) after the block's points in grid order: a residual
    replaces worst only if it exceeds it, and a non-finite one reads inf."""
    rs = list(map(abs, _residuals(family, xs, ys, *coefficients)))
    if math.isfinite(sum(rs)):
        top = max(rs)
        if top > worst:
            i = rs.index(top)
            worst, worst_pt = top, (xs[i], ys[i])
        return worst, worst_pt
    for x, y, r in zip(xs, ys, rs):
        if not math.isfinite(r):
            r = math.inf  # NaN compares false; the first one must still fail
        if r > worst:
            worst, worst_pt = r, (x, y)
    return worst, worst_pt


def oracle_solution(p: ThomasParams, modes):
    """u = (1/gamma) log(sum_i c_i exp(lambda_i x + mu_i y)) with each
    exponent pair on the dispersion locus lambda*mu + alpha*lambda +
    beta*mu = 0 and every c_i > 0.  Exact for any finite positive mix."""
    alpha, beta, gamma = p.floats()
    checked = []
    for lam, c in modes:
        lam = float(lam)
        c = float(c)
        if not (math.isfinite(lam) and math.isfinite(c)):
            raise VerificationError("mode exponents and weights must be finite")
        if c <= 0:
            raise VerificationError("mode weights must be positive")
        if lam + beta == 0:
            raise VerificationError("lambda = -beta is off the dispersion locus")
        mu = -alpha * lam / (lam + beta)
        checked.append((lam, mu, c))

    def u(x, y):
        total = 0.0
        for lam, mu, c in checked:
            total = total + c * exp_(affine(lam, x, mu, y, 0.0))
        return log_(total) / gamma

    u.modes = tuple(checked)
    return u


def oracle_solutions(p: ThomasParams, count: int = 3, rng: random.Random = None):
    """Independent exact solutions from the exponential-mix construction."""
    if rng is None:
        rng = random.Random(20260815)
    alpha, beta, gamma = p.floats()
    out = []
    for k in range(count):
        n_modes = 1 + k % 3
        modes = []
        seen = set()
        while len(modes) < n_modes:
            lam = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            if float(lam) + beta == 0 or lam in seen:
                continue
            seen.add(lam)
            modes.append((float(lam), rng.uniform(0.2, 3.0)))
        out.append(oracle_solution(p, modes))
    return out
