"""The four benchmark workloads.

Each workload hands out its ops one cycle at a time; a cycle is the
smallest list of ops that covers the workload's whole mix once, and the
loop in run.py only stops on a cycle boundary, so every run measures the
same mix.  An op is ``run`` (the timed calls into the program) followed by
``check`` (untimed, independent of the code under test where possible),
which raises CheckFailed on a wrong answer.

derive    large-tree exact work (expr/normal/jetpoly/vectorfield/determining)
classify  many tiny exact ops, where constructor and Fraction overhead count
grid      float and hyper-dual work (families/hyperdual/verification/fuchs)
cli       cold ``python -m lie_thomas.cli`` children, one at a time
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction

import gen
import golden
from lie_thomas import algebra, classifier, determining, families
from lie_thomas import normal, printer, reduction, vectorfield, verification
from lie_thomas.expr import UFunc, param
from lie_thomas.jetpoly import JetPolynomial, mono_expr

F = Fraction
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# label: job or command name, for the record; key: the hashable input, for
# the repeated-input share
Op = namedtuple("Op", "label key run check")


def node_count(e) -> int:
    """Nodes of an expression tree (every Add/Mul/Pow/App/Func and leaf)."""
    count, stack = 0, [e]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("terms", "factors", "args"):
            stack.extend(getattr(node, attr, ()))
        for attr in ("base", "arg"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


class Workload:
    # (owner, attribute, span name) wrapped by a traced run
    trace_points = ()
    children = False  # ops run in child processes (host speed from a child reference)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tracer = None
        self.labels = Counter()
        self._seen = set()
        self.repeats = 0
        self.ops = 0

    def cycle(self):
        ops = self.make_cycle()
        for op in ops:
            self.labels[op.label] += 1
            self.ops += 1
            if op.key in self._seen:
                self.repeats += 1
            self._seen.add(op.key)
        return ops

    def make_cycle(self):
        raise NotImplementedError

    def record(self) -> dict:
        """Input statistics printed with every run."""
        return {
            "op_mix": dict(sorted(self.labels.items())),
            "repeated_input_share": self.repeats / self.ops if self.ops else 0.0,
        }

    def install_trace(self, tracer):
        self.tracer = tracer
        for owner, attr, name in self.trace_points:
            tracer.patch(owner, attr, name)

    def remove_trace(self):
        self.tracer.unpatch()

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_values(self, p50_ms_by_op) -> dict:
        """Per-layer values of a traced run, keyed by metric name;
        ``p50_ms_by_op`` is the scaled median latency of each kind of op."""
        return {}


# --- derive -------------------------------------------------------------------

G_FUNC = UFunc("g", ("x", "y"))()
EPSILON = param("epsilon")


def nine_cases(p: determining.ThomasParams):
    """Canonical coordinates of the nine tags; the two parameter-pinned
    strata take their coordinates from the constants when those are numbers."""
    coords = {
        "Case1": (4, 1, 0, 1),
        "Case2_1a": (1, 2, 1, 0),
        "Case2_1b": (-1, -1, 1, 0),
        "Case2_2": (1, 0, 1, 0),
        "Case2_3": (-1, 0, 1, 0),
        "Case2_4": (0, 0, 1, 0),
        "Case3_1a": (1, 1, 0, 0),
        "Case3_1b": (1, 2, 0, 0),
        "Case3_2": (0, 1, 0, 0),
    }
    if p.is_numeric():
        alpha, beta, gamma = (getattr(p, n).value for n in ("alpha", "beta", "gamma"))
        coords["Case2_3"] = (-gamma / beta, 0, 1, 0)
        coords["Case3_1a"] = (1, beta / alpha, 0, 0)
    return [
        classifier.CanonicalCase(tag, tuple(F(c) for c in cs), ())
        for tag, cs in coords.items()
    ]


class Derive(Workload):
    """Each op derives every large symbolic object for one set of
    constants; one op in four uses symbolic constants (the same input
    every time, as ``derive --params symbolic`` traffic is)."""

    trace_points = (
        (vectorfield, "prolong", "vectorfield.prolong"),
        (determining, "prolong", "vectorfield.prolong"),
        (determining, "apply_prolonged", "vectorfield.apply_prolonged"),
        (JetPolynomial, "from_expr", "jetpoly.from_expr"),
        (normal, "canonical_expr", "normal.canonical_expr"),
        (determining, "determining_equations", "determining.determining_equations"),
        (determining, "check_symmetry", "determining.check_symmetry"),
        (algebra, "commutator_table", "algebra.commutator_table"),
        (algebra, "adjoint_table", "algebra.adjoint_table"),
        (reduction, "verify_reduction", "reduction.verify_reduction"),
        (printer, "to_text", "printer.to_text"),
    )

    def make_cycle(self):
        ops = []
        for i in range(4):
            constants = None if i == 3 else gen.params(self.rng)
            lam = gen.shift_parameter(constants[1] if constants else None, self.rng)
            ops.append(self._op(constants, lam))
        return ops

    def _op(self, constants, lam):
        def run():
            p = (
                determining.ThomasParams()
                if constants is None
                else determining.ThomasParams(*constants)
            )
            pf = vectorfield.prolong(vectorfield.symbolic_field())
            system = determining.determining_equations(p)
            rows = [
                (printer.to_text(mono_expr(m)), printer.to_text(c))
                for m, c in system.rows
            ]
            comm = algebra.commutator_table(p, G_FUNC)
            adj = algebra.adjoint_table(p, EPSILON)
            fields = [determining.v1(), determining.v2(), determining.v3(), determining.v4(p)]
            g, _ = determining.exponential_g(lam, p)
            fields.append(determining.v_g(g, p))
            certificates = [determining.check_symmetry(vf, p)[0] for vf in fields]
            reductions = {}
            for case in nine_cases(p):
                try:
                    reductions[case.tag] = reduction.verify_reduction(case, p)
                except reduction.ReductionError:
                    reductions[case.tag] = "ReductionError"
            return p, pf, system, rows, comm, adj, certificates, reductions

        def check(out):
            p, pf, system, rows, comm, adj, certificates, reductions = out
            named = None if constants is None else dict(zip(("alpha", "beta", "gamma"), constants))
            expect(golden.rows_match(rows, named), "determining rows differ from the golden rows")
            expect(golden.tables_match(comm, golden.expected_commutator(p, G_FUNC)),
                   "commutator table differs from the golden table")
            expect(golden.tables_match(adj, golden.expected_adjoint(p, EPSILON)),
                   "adjoint table differs from the golden table")
            expect(certificates == [True] * 5, "symmetry certificate failed: %r" % certificates)
            for tag, result in reductions.items():
                want = "ReductionError" if tag == "Case2_4" else True
                expect(result == want, "verify_reduction(%s) gave %r" % (tag, result))
            if self.tracer is not None:
                self.tracer.value("expr.prolonged_nodes", sum(
                    node_count(pf.coefficient(k).to_expr()) for k in vectorfield.COEFF_KEYS))
                self.tracer.value("normal.terms", sum(
                    len(normal.normal_form(c).num) for _, c in system.rows))
                self.tracer.value("determining.rows", len(system))

        key = ("params", constants)
        return Op("symbolic" if constants is None else "rational", key, run, check)

    def layer_values(self, p50_ms_by_op):
        t = self.tracer
        out = {name + "_ms": t.op_median(name) * 1e3 for name in {
            s for _, _, s in self.trace_points}}
        out["determining.determining_equations_total_ms"] = (
            t.total_median("determining.determining_equations") * 1e3)
        for name in ("expr.prolonged_nodes", "normal.terms", "determining.rows"):
            out[name] = t.value_median(name)
        return out


# --- classify -----------------------------------------------------------------


class Classify(Workload):
    """Each op sends one stratified vector through classify, a replay of
    its adjoint word, the orbit-invariance check, invariants, the reduced
    ODE and the reduction certificate."""

    trace_points = (
        (classifier, "classify", "classifier.classify"),
        (classifier, "apply_word", "classifier.apply_word"),
        (classifier, "orbit_invariance_check", "classifier.orbit_invariance_check"),
        (classifier, "adjoint", "algebra.adjoint"),
        (classifier, "adjoint_scaling", "algebra.adjoint"),
        (algebra.AlgebraElement, "__post_init__", "algebra.element_construct"),
        (reduction, "invariants", "reduction.invariants"),
        (reduction, "reduced_ode", "reduction.reduced_ode"),
        (reduction, "verify_reduction", "reduction.verify_reduction"),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.tags = Counter()

    def make_cycle(self):
        ops = []
        for tag in gen.STRATA:
            constants = gen.params(self.rng)
            coords = gen.vector_for(tag, constants, self.rng)
            ops.append(self._op(tag, constants, coords, self.rng.getrandbits(32)))
        return ops

    def _op(self, tag, constants, coords, orbit_seed):
        def run():
            p = determining.ThomasParams(*constants)
            el = algebra.AlgebraElement(*coords)
            case = classifier.classify(el, p)
            replay = classifier.apply_word(coords, case.word, p)
            orbit = classifier.orbit_invariance_check(el, p, rng=random.Random(orbit_seed))
            reduction.invariants(case, p)
            try:
                ode = reduction.reduced_ode(case, p).kind
            except reduction.ReductionError:
                ode = "ReductionError"
            try:
                certified = reduction.verify_reduction(case, p)
            except reduction.ReductionError:
                certified = "ReductionError"
            return case, replay, orbit, ode, certified

        def check(out):
            case, replay, orbit, ode, certified = out
            self.tags[case.tag] += 1
            expect(case.tag == tag, "drawn from stratum %s, classified %s" % (tag, case.tag))
            expect(replay == case.coords, "word replay %r != canonical %r" % (replay, case.coords))
            expect(orbit is True, "orbit invariance failed for %s" % tag)
            if tag == "Case2_4":
                expect(ode == certified == "ReductionError",
                       "Case2_4 should have no reduction, got %r / %r" % (ode, certified))
            else:
                expect(ode != "ReductionError", "reduced_ode raised for %s" % tag)
                expect(certified is True, "verify_reduction(%s) gave %r" % (tag, certified))

        return Op(tag, (constants, coords), run, check)

    def record(self):
        out = super().record()
        out["tag_histogram"] = dict(sorted(self.tags.items()))
        return out

    def layer_values(self, p50_ms_by_op):
        t = self.tracer
        out = {
            "classifier.classify_us": t.call_median("classifier.classify") * 1e6,
            "classifier.apply_word_us": t.call_median("classifier.apply_word") * 1e6,
            "classifier.orbit_invariance_check_ms":
                t.op_median("classifier.orbit_invariance_check") * 1e3,
            "algebra.adjoint_us": t.call_median("algebra.adjoint") * 1e6,
            "algebra.element_construct_us": t.call_median("algebra.element_construct") * 1e6,
            "reduction.invariants_ms": t.op_median("reduction.invariants") * 1e3,
            "reduction.reduced_ode_ms": t.op_median("reduction.reduced_ode") * 1e3,
            "reduction.verify_reduction_ms": t.op_median("reduction.verify_reduction") * 1e3,
        }
        for tag in gen.STRATA:
            out["classifier.tag_count." + tag] = self.tags[tag]
        return out


# --- grid ---------------------------------------------------------------------

NUM = determining.ThomasParams(1, 1, 1)
# 50x50 is the CLI's default grid.  At 100x100 a case1 job ran about a
# second, too long for the reference samples around it to track the host's
# speed (per-op spreads of 20-30 %), and too few case1 jobs fitted in a run
# for the tail to stay on them.
WIDE = verification.GridSpec(-2.0, 2.0, 50, -2.0, 2.0, 50)
INNER = verification.GridSpec(-2.0, -0.1, 50, -2.0, -0.1, 50)
CASE1 = {"a1": F(0), "a2": F(0), "c0": F(1)}

# job -> (builder name in lie_thomas.families, constants, grid, tolerance);
# constants, tolerances and grids are those of acceptance criterion 5, except
# that case1 also runs on the wide grid, where half its points are skipped
FAMILY_JOBS = {
    "case1_in": ("case1_solution", CASE1, INNER, 1e-6),
    "case1_wide": ("case1_solution", CASE1, WIDE, 1e-6),
    "case21a": ("case21a_solution", {"a1": F(1), "a2": F(2), "A": F(5000), "root": "+"}, WIDE, 1e-9),
    "case21b": ("case21b_solution", {"a1": F(-1), "a2": F(-1), "A0": F(0)}, WIDE, 1e-9),
    "case22": ("case22_solution", {"a1": F(1)}, WIDE, 1e-9),
    "case31a": ("case31a_solution", {"k0": F(5)}, WIDE, 1e-9),
    "case31b": ("case31b_solution", {"a2": F(2), "k": F(1)}, WIDE, 1e-9),
}
ORACLE_TOLERANCE = 1e-9
ORACLE_COUNT = 3
GRID_JOBS = tuple(FAMILY_JOBS) + ("oracle",)
SAMPLED = ("case21a", "case21b", "case22", "case31a", "case31b")


def build_family(job):
    builder, constants, _, _ = FAMILY_JOBS[job]
    return getattr(families, builder)(NUM, **constants)


def grid_report_ok(report, grid, tolerance):
    """Raise CheckFailed unless the report is complete, finite and within
    tolerance.  residual_grid drops NaN residuals silently, so a finite
    worst point is required as well as a finite maximum."""
    total = grid.nx * grid.ny
    expect(report.evaluated + report.skipped == total,
           "evaluated %d + skipped %d != %d grid points"
           % (report.evaluated, report.skipped, total))
    expect(report.evaluated > 0, "no grid point evaluated")
    expect(math.isfinite(report.max_residual), "max residual %r is not finite" % report.max_residual)
    expect(all(math.isfinite(c) for c in report.worst_point),
           "worst point %r is not finite (NaN residuals were dropped)" % (report.worst_point,))
    expect(report.max_residual < tolerance,
           "max residual %.3e exceeds %.1e" % (report.max_residual, tolerance))


class Grid(Workload):
    """Each op builds fresh families and evaluates them on 50x50 grids:
    hyper-dual residual grids for every family and for a seeded oracle mix,
    plus one float sampling job over the families' domains (the
    ``solve --format csv`` path)."""

    trace_points = (
        (verification, "oracle_solutions", "verification.oracle_solutions"),
    )
    last_series = None  # the latest FuchsSeries a traced case1 build made

    def __init__(self, seed):
        super().__init__(seed)
        self.grid_stats = {job: {"seconds": [], "evaluated": [], "max_residual": 0.0}
                           for job in GRID_JOBS}
        self.points = Counter()
        self.sample_seconds = 0.0
        self.sample_points = 0
        self.cycles = 0

    def make_cycle(self):
        self.cycles += 1
        jobs = [self._family_op(job) for job in FAMILY_JOBS]
        jobs.append(self._oracle_op(self.rng.getrandbits(32)))
        jobs.append(self._sample_op(self.rng.uniform(0.0, 0.04), self.rng.uniform(0.0, 0.04)))
        return jobs

    def _family_op(self, job):
        _, _, grid, tolerance = FAMILY_JOBS[job]

        def run():
            with self.span("families.build." + job):
                fam = build_family(job)
            t0 = time.perf_counter()
            with self.span("verification.residual_grid." + job):
                report = verification.residual_grid(fam, grid=grid)
            return fam, report, time.perf_counter() - t0

        def check(out):
            fam, report, seconds = out
            self._grid_stats(job, [report], seconds)
            grid_report_ok(report, grid, tolerance)
            if self.tracer is not None:
                self._time_residual(fam, grid)

        return Op(job, job, run, check)

    def _oracle_op(self, oracle_seed):
        def run():
            sols = verification.oracle_solutions(NUM, ORACLE_COUNT, random.Random(oracle_seed))
            t0 = time.perf_counter()
            reports = []
            for u in sols:
                fam = families.SolutionFamily("oracle", "oracle", NUM, {}, u, lambda x, y: True)
                with self.span("verification.residual_grid.oracle"):
                    reports.append(verification.residual_grid(fam, grid=WIDE))
            return reports, time.perf_counter() - t0

        def check(out):
            reports, seconds = out
            self._grid_stats("oracle", reports, seconds)
            expect(len(reports) == ORACLE_COUNT,
                   "oracle_solutions returned %d solutions" % len(reports))
            for report in reports:
                grid_report_ok(report, WIDE, ORACLE_TOLERANCE)

        return Op("oracle", ("oracle", oracle_seed), run, check)

    def _sample_op(self, dx, dy):
        grid = verification.GridSpec(WIDE.xmin + dx, WIDE.xmax + dx, WIDE.nx,
                                     WIDE.ymin + dy, WIDE.ymax + dy, WIDE.ny)

        def run():
            t0 = time.perf_counter()
            sampled = {}
            for job in SAMPLED:
                fam = build_family(job)
                sampled[job] = [
                    (x, y, float(fam(x, y))) for x, y in grid.points() if fam.domain(x, y)
                ]
            return sampled, time.perf_counter() - t0

        def check(out):
            sampled, seconds = out
            self.sample_seconds += seconds
            self.sample_points += sum(len(rows) for rows in sampled.values())
            for job, rows in sampled.items():
                expect(rows, "sampling %s kept no grid point" % job)
                expect(all(math.isfinite(u) for _, _, u in rows),
                       "sampling %s produced a non-finite value" % job)

        return Op("sample", ("sample", dx, dy), run, check)

    def _grid_stats(self, job, reports, seconds):
        stats = self.grid_stats[job]
        evaluated = sum(r.evaluated for r in reports)
        stats["seconds"].append(seconds)
        stats["evaluated"].append(evaluated)
        finite = [r.max_residual for r in reports if math.isfinite(r.max_residual)]
        stats["max_residual"] = max([stats["max_residual"]] + finite)
        self.points["evaluated"] += evaluated
        self.points["skipped"] += sum(r.skipped for r in reports)

    def _time_residual(self, fam, grid, count=64):
        """Traced runs only: scalar residual() at single in-domain points."""
        points = [pt for pt in grid.points() if fam.domain(*pt)]
        for x, y in points[:: max(1, len(points) // count)][:count]:
            t0 = time.perf_counter()
            verification.residual(fam, x, y, NUM)
            self.tracer.value("hyperdual.residual_us", (time.perf_counter() - t0) * 1e6)

    def record(self):
        out = super().record()
        total = self.points["evaluated"] + self.points["skipped"]
        out["in_domain_share"] = self.points["evaluated"] / total if total else 0.0
        return out

    def layer_values(self, p50_ms_by_op):
        t = self.tracer
        out = {}
        for job in GRID_JOBS:
            stats = self.grid_stats[job]
            if job != "oracle":
                out["families.build_ms." + job] = t.op_median("families.build." + job) * 1e3
            out["verification.residual_grid_ms." + job] = (
                t.op_median("verification.residual_grid." + job) * 1e3)
            rates = [n / s for n, s in zip(stats["evaluated"], stats["seconds"]) if s > 0]
            out["verification.points_per_s." + job] = (
                sorted(rates)[len(rates) // 2] if rates else 0.0)
            out["verification.max_residual." + job] = stats["max_residual"]
        cycles = max(self.cycles, 1)
        out["verification.points_evaluated"] = self.points["evaluated"] / cycles
        out["verification.points_skipped"] = self.points["skipped"] / cycles
        out["verification.in_domain_share"] = self.record()["in_domain_share"]
        out["families.sample_us"] = (
            self.sample_seconds / self.sample_points * 1e6 if self.sample_points else 0.0)
        out["hyperdual.residual_us"] = t.value_median("hyperdual.residual_us")
        out["fuchs.fuchs_series_ms"] = t.op_median("fuchs.fuchs_series") * 1e3
        series = self.last_series
        out["fuchs.truncation"] = series.truncation if series else 0
        out["fuchs.tail_bound"] = series.tail_bound if series else 0.0
        out["fuchs.eval_us"] = self._eval_us(series)
        out["verification.oracle_solutions_ms"] = (
            t.op_median("verification.oracle_solutions") * 1e3)
        return out

    def install_trace(self, tracer):
        super().install_trace(tracer)
        tracer.patch(families, "fuchs_series", "fuchs.fuchs_series", on_return=self._keep_series)

    def _keep_series(self, series):
        self.last_series = series

    @staticmethod
    def _eval_us(series, count=256):
        if series is None:
            return 0.0
        times = []
        for k in range(count):
            chi = -4.5 + 4.4 * k / (count - 1)
            t0 = time.perf_counter()
            series.eval(chi)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2] * 1e6


# --- cli ----------------------------------------------------------------------

README_VECTOR = "1,1,3,1"
DEFAULT_GRID_POINTS = 50 * 50


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed("output is not JSON: %s" % exc) from None


def _check_kind(doc, kind, tag=None):
    expect(doc.get("schema") == "lie-thomas/1", "schema %r" % doc.get("schema"))
    expect(doc.get("kind") == kind, "kind %r, wanted %r" % (doc.get("kind"), kind))
    if tag is not None:
        expect(doc.get("tag") == tag, "tag %r, wanted %r" % (doc.get("tag"), tag))


def _check_tables(doc):
    _check_kind(doc, "tables")
    comm, adj = doc["commutator"], doc["adjoint"]
    expect([len(r) for r in comm] == [5] * 5, "commutator table is not 5x5")
    expect([len(r) for r in adj] == [4] * 4, "adjoint table is not 4x4")
    finite = {
        (0, 3): "(-gamma)*v1 + (beta)*v3",
        (1, 3): "(gamma)*v2 + (-alpha)*v3",
        (3, 0): "(gamma)*v1 + (-beta)*v3",
        (3, 1): "(-gamma)*v2 + (alpha)*v3",
    }
    for i in range(4):
        for j in range(4):
            want = finite.get((i, j), "0")
            expect(comm[i][j] == want, "[v%d, v%d] = %r, wanted %r" % (i + 1, j + 1, comm[i][j], want))
    expect(adj[2] == ["v1", "v2", "v3", "v4"], "Ad(exp(eps*v3)) is not the identity")


def _check_derive(doc):
    _check_kind(doc, "determining-system")
    rows = [(r["monomial"], r["coefficient"]) for r in doc["rows"]]
    expect(golden.rows_match(rows, None), "derive rows differ from the golden rows")


def _check_verify(tolerance):
    def check(doc):
        _check_kind(doc, "verification")
        expect(doc.get("pass") is True, "verify pass = %r" % doc.get("pass"))
        expect(doc["evaluated"] + doc["skipped"] == DEFAULT_GRID_POINTS, "grid point count")
        expect(doc["tolerance"] == tolerance, "tolerance %r" % doc["tolerance"])
        expect(math.isfinite(doc["max_residual"]) and all(map(math.isfinite, doc["worst_point"])),
               "non-finite residual report")
    return check


def _check_oracle(doc):
    _check_kind(doc, "oracle")
    sols = doc["solutions"]
    expect(len(sols) == 3, "oracle printed %d solutions" % len(sols))
    for s in sols:
        expect(s["evaluated"] == DEFAULT_GRID_POINTS, "oracle grid point count")
        expect(math.isfinite(s["max_residual"]) and s["max_residual"] < ORACLE_TOLERANCE,
               "oracle residual %r" % s["max_residual"])


# (command label, argv after the module, stdin source, exit code, JSON check);
# a stdin source "previous" feeds the preceding command's stdout
def cli_commands(oracle_seed):
    solves = []
    for tag, constants, tolerance in (
        ("Case2_2", ["--constants", "a1=2"], "1e-9"),
        ("Case2_1a", [], "1e-9"),
        ("Case1", [], "1e-6"),
    ):
        solves.append(("solve", ["solve", "--case", tag, "--params", "1,1,1", *constants,
                                  "--format", "json"], None, 0,
                       lambda doc, tag=tag: _check_kind(doc, "solution-family", tag)))
        solves.append(("verify", ["verify", "--family", "-", "--format", "json",
                                  "--tolerance", tolerance], "previous", 0,
                       _check_verify(float(tolerance))))
    return [
        ("classify", ["classify", "--vector", README_VECTOR, "--params", "1,1,1",
                      "--format", "json"], None, 0,
         lambda doc: _check_kind(doc, "classification", "Case1")),
        ("reduce", ["reduce", "--vector", README_VECTOR, "--params", "1,1,1",
                    "--format", "json"], None, 0,
         lambda doc: _check_kind(doc, "reduction", "Case1")),
        ("derive", ["derive", "--params", "symbolic", "--format", "json"], None, 0, _check_derive),
        ("tables", ["tables", "--params", "symbolic", "--format", "json"], None, 0, _check_tables),
        *solves,
        # argparse reads a space-separated "-2,2,..." as an option, so the
        # grid is passed with "="
        ("oracle", ["oracle", "--params", "1,1,1", "--count", "3", "--seed", str(oracle_seed),
                    "--grid=-2,2,50,-2,2,50", "--format", "json"], None, 0, _check_oracle),
        ("solve_error", ["solve", "--case", "Case2_3", "--params", "1,1,1"], None, 3, None),
    ]


def run_child(argv, stdin_bytes, cwd, env):
    """Run a child to completion; (exit code, stdout, max RSS in KiB).
    The child is reaped with wait4 so its own peak RSS is known."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if stdin_bytes:
            proc.stdin.write(stdin_bytes)
        proc.stdin.close()
        out = proc.stdout.read()
        proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Cli(Workload):
    """Each op is one cold ``python -m lie_thomas.cli`` child; children run
    one at a time, and verify reads the preceding solve's descriptor on
    stdin."""

    children = True

    def __init__(self, seed):
        super().__init__(seed)
        self.env = {k: v for k, v in os.environ.items() if k != "LIE_THOMAS_FORMAT"}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.max_rss_kib = 0
        self.previous = b""

    def make_cycle(self):
        return [self._op(*c) for c in cli_commands(self.rng.randint(0, 2**31 - 1))]

    def _op(self, label, argv, stdin_from, code, check_doc):
        full = [sys.executable, "-m", "lie_thomas.cli", *argv]

        def run():
            stdin = self.previous if stdin_from == "previous" else None
            with self.span("cli." + label):
                result = run_child(full, stdin, ROOT, self.env)
            self.previous = result[1]
            return result

        def check(out):
            rc, stdout, rss_kib = out
            self.max_rss_kib = max(self.max_rss_kib, rss_kib)
            expect(rc == code, "%s exited %d, wanted %d" % (label, rc, code))
            if check_doc is not None:
                check_doc(_json(stdout))

        return Op(label, tuple(argv), run, check)

    def peak_rss_mb(self):
        return self.max_rss_kib / 1024.0

    def layer_values(self, p50_ms_by_op):
        return {"cli.%s_ms" % label: ms for label, ms in p50_ms_by_op.items()}


WORKLOADS = {"derive": Derive, "classify": Classify, "grid": Grid, "cli": Cli}
