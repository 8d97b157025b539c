"""Self-tests of the benchmark's own checks and bookkeeping.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose (the file name does not
match test_*.py): these test the benchmark, not lie_thomas.
"""

from __future__ import annotations

import math
import os
import random
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lie_thomas import classifier, determining, families, verification  # noqa: E402
from lie_thomas.algebra import AlgebraElement  # noqa: E402
from lie_thomas.jetpoly import mono_expr  # noqa: E402
from lie_thomas.printer import to_text  # noqa: E402

SMALL = verification.GridSpec(-2.0, -0.1, 5, -2.0, -0.1, 5)


class OneOpWorkload:
    """A workload whose every cycle is the single given op."""

    children = False

    def __init__(self, op):
        self.op = op

    def cycle(self):
        return [self.op]


def nan_family():
    return families.SolutionFamily(
        "nan", "nan", workloads.NUM, {}, lambda x, y: x * math.nan, lambda x, y: True)


class NanResidualCounts(unittest.TestCase):
    def test_residual_grid_hides_an_all_nan_evaluator(self):
        report = verification.residual_grid(nan_family(), grid=SMALL)
        # the program reports a clean zero residual; only the worst point shows it
        self.assertEqual(report.max_residual, 0.0)
        self.assertTrue(all(math.isnan(c) for c in report.worst_point))

    def test_all_nan_evaluator_is_a_failed_op(self):
        op = workloads.Op(
            "nan", "nan",
            lambda: verification.residual_grid(nan_family(), grid=SMALL),
            lambda report: workloads.grid_report_ok(report, SMALL, 1e-9))
        latencies, scaled, _, failures = run.measure(OneOpWorkload(op), 0)
        self.assertEqual((len(latencies), len(scaled)), (1, 1))
        self.assertEqual(len(failures), 1)
        self.assertIn("not finite", failures[0])


class FreshFamilies(unittest.TestCase):
    def test_no_two_grid_jobs_share_a_family(self):
        small = {job: (builder, constants, SMALL, tol)
                 for job, (builder, constants, _, tol) in workloads.FAMILY_JOBS.items()}
        saved = dict(workloads.FAMILY_JOBS)
        workloads.FAMILY_JOBS.update(small)
        try:
            grid = workloads.Grid(seed=3)
            built = []
            for _ in range(2):
                for op in grid.cycle():
                    if op.label in workloads.FAMILY_JOBS:
                        family, report, _ = op.run()
                        built.append(family)
        finally:
            workloads.FAMILY_JOBS.update(saved)
        self.assertEqual(len(built), 2 * len(workloads.FAMILY_JOBS))
        self.assertEqual(len({id(f) for f in built}), len(built))


class StratifiedInputs(unittest.TestCase):
    def test_every_drawn_vector_lands_in_its_stratum(self):
        rng = random.Random(5)
        for _ in range(30):
            for tag in gen.STRATA:
                constants = gen.params(rng)
                coords = gen.vector_for(tag, constants, rng)
                case = classifier.classify(
                    AlgebraElement(*coords), determining.ThomasParams(*constants))
                self.assertEqual(case.tag, tag, (constants, coords))

    def test_same_seed_same_inputs(self):
        a = [op.key for op in workloads.Classify(seed=9).cycle()]
        b = [op.key for op in workloads.Classify(seed=9).cycle()]
        c = [op.key for op in workloads.Classify(seed=10).cycle()]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


class GoldenRows(unittest.TestCase):
    @staticmethod
    def printed(p):
        return [(to_text(mono_expr(m)), to_text(c))
                for m, c in determining.determining_equations(p).rows]

    def test_symbolic_rows_match_and_a_changed_row_does_not(self):
        rows = self.printed(determining.ThomasParams())
        self.assertTrue(golden.rows_match(rows, None))
        rows[4] = (rows[4][0], rows[4][1].replace("alpha", "beta"))
        self.assertFalse(golden.rows_match(rows, None))

    def test_rational_rows_match_only_their_own_constants(self):
        constants = (Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3))
        rows = self.printed(determining.ThomasParams(*constants))
        named = dict(zip(("alpha", "beta", "gamma"), constants))
        self.assertTrue(golden.rows_match(rows, named))
        named["gamma"] = Fraction(7, 2)
        self.assertFalse(golden.rows_match(rows, named))


class HostSpeedScaling(unittest.TestCase):
    def test_an_op_is_scaled_by_the_references_around_it(self):
        speed = run.HostSpeed(children=False)
        speed.samples = [2 * speed.nominal, 4 * speed.nominal]
        self.assertAlmostEqual(speed.scale(0), 1 / 3)


class Tail(unittest.TestCase):
    def test_tail_leaves_ten_ops_above(self):
        value, percentile = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(percentile, 90.0)


if __name__ == "__main__":
    unittest.main()
