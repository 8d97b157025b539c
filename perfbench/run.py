"""Benchmark of the lie_thomas pipeline.

    python3 perfbench/run.py --workload {derive,classify,grid,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root (the package is imported from ./src).  One
process, one client, closed loop: the next op starts when the previous one
has finished and been checked; no threads, and the cli workload's children
run one at a time.  The loop runs whole cycles of the workload's op mix
until S seconds have passed.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half traced and prints the per-layer metrics (see
tracing.py), writing the spans to .perfbench_out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 3
IMPORT_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

GRID_JOB_NAMES = ("case1_in", "case1_wide", "case21a", "case21b", "case22",
                  "case31a", "case31b", "oracle")
TAG_NAMES = ("Case1", "Case2_1a", "Case2_1b", "Case2_2", "Case2_3", "Case2_4",
             "Case3_1a", "Case3_1b", "Case3_2")
CLI_NAMES = ("classify", "reduce", "derive", "tables", "solve", "verify", "oracle",
             "solve_error")

PER_LAYER = (
    # derive
    ("vectorfield.prolong_ms", "ms"),
    ("vectorfield.apply_prolonged_ms", "ms"),
    ("jetpoly.from_expr_ms", "ms"),
    ("normal.canonical_expr_ms", "ms"),
    ("determining.determining_equations_ms", "ms"),
    ("determining.determining_equations_total_ms", "ms"),
    ("determining.check_symmetry_ms", "ms"),
    ("algebra.commutator_table_ms", "ms"),
    ("algebra.adjoint_table_ms", "ms"),
    ("reduction.verify_reduction_ms", "ms"),
    ("printer.to_text_ms", "ms"),
    ("expr.prolonged_nodes", "count"),
    ("normal.terms", "count"),
    ("determining.rows", "count"),
    # classify
    ("classifier.classify_us", "us"),
    ("classifier.apply_word_us", "us"),
    ("classifier.orbit_invariance_check_ms", "ms"),
    ("algebra.adjoint_us", "us"),
    ("algebra.element_construct_us", "us"),
    ("reduction.invariants_ms", "ms"),
    ("reduction.reduced_ode_ms", "ms"),
    *(("classifier.tag_count." + t, "count") for t in TAG_NAMES),
    # grid
    *(("families.build_ms." + j, "ms") for j in GRID_JOB_NAMES if j != "oracle"),
    *(("verification.residual_grid_ms." + j, "ms") for j in GRID_JOB_NAMES),
    *(("verification.points_per_s." + j, "1/s") for j in GRID_JOB_NAMES),
    *(("verification.max_residual." + j, "1") for j in GRID_JOB_NAMES),
    ("verification.points_evaluated", "count"),
    ("verification.points_skipped", "count"),
    ("verification.in_domain_share", "ratio"),
    ("families.sample_us", "us"),
    ("hyperdual.residual_us", "us"),
    ("fuchs.fuchs_series_ms", "ms"),
    ("fuchs.eval_us", "us"),
    ("fuchs.truncation", "count"),
    ("fuchs.tail_bound", "1"),
    ("verification.oracle_solutions_ms", "ms"),
    # cli and set-up
    ("import.interpreter_ms", "ms"),
    ("import.lie_thomas_ms", "ms"),
    ("import.scipy_integrate_ms", "ms"),
    *(("cli.%s_ms" % c, "ms") for c in CLI_NAMES),
    # every workload
    ("inputs.repeated_share", "ratio"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.traced_op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

# what a span from outside the package cannot show; left to an in-program trace
TRACE_GAPS = (
    "scipy quad calls per case1 evaluation (the integrand is a closure in families)",
    "Fuchs series terms summed per evaluation point",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: exit once the first op is ready (set-up timing)")
    return ap.parse_args(argv)


# --- set-up and import probes -------------------------------------------------


def probe_argv(args, extra=()):
    return [sys.executable, *extra, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--probe"]


def setup_seconds(args):
    """Time from spawning a fresh interpreter until it reports the first op
    ready, scaled by the child reference; median of SETUP_PROBES children."""
    times = []
    before = child_reference()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(probe_argv(args), cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        after = child_reference()
        times.append((t1 - t0) * REFERENCE_CHILD_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def import_breakdown(args):
    """Median interpreter start (``-c pass``) and the cumulative import
    times of lie_thomas and scipy.integrate from ``-X importtime``."""
    start = [child_reference() for _ in range(IMPORT_PROBES)]
    cumulative = {"lie_thomas": [], "scipy.integrate": []}
    log = os.path.join(OUT_DIR, "importtime-%d.log" % os.getpid())
    try:
        for _ in range(IMPORT_PROBES):
            with open(log, "wb") as fh:
                subprocess.run(probe_argv(args, ("-X", "importtime")), cwd=ROOT, check=True,
                               stdout=subprocess.DEVNULL, stderr=fh)
            found = {}
            with open(log) as fh:
                for line in fh:
                    parts = line.split("|")
                    if len(parts) != 3 or not line.startswith("import time:"):
                        continue
                    name = parts[2].strip()
                    if name in cumulative and name not in found:
                        found[name] = int(parts[1]) / 1e3
            for name, values in cumulative.items():
                values.append(found.get(name, 0.0))
    finally:
        if os.path.exists(log):
            os.remove(log)
    return {
        "import.interpreter_ms": statistics.median(start) * 1e3,
        "import.lie_thomas_ms": statistics.median(cumulative["lie_thomas"]),
        "import.scipy_integrate_ms": statistics.median(cumulative["scipy.integrate"]),
    }


# --- host speed ---------------------------------------------------------------
#
# The machines this benchmark runs on are shared: measured with a fixed
# pure-Python loop, their speed drifts by up to 1.8x over seconds to
# minutes, more than any regression bound could absorb.  So every timed
# interval is scaled by a reference timed right beside it, with nothing of
# lie_thomas in it: a fixed pure-Python loop for in-process ops, and a bare
# ``python -c pass`` child for child processes (cli ops, set-up probes).
# A time t between references r0 and r1 is reported as t * R / mean(r0, r1),
# where R is the reference's time on an uncontended core of the machine
# the benchmark was written on (2-vCPU Intel Xeon VM at 2.1 GHz, Python
# 3.11.7), so reported times read as milliseconds or seconds there.  Raw
# times are printed on the ``loop:`` line.

REFERENCE_LOOP_S = 290e-6
REFERENCE_CHILD_S = 0.047


def reference_loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3)
        table[i % 13] = (acc.numerator % 101, i)
    return acc


def loop_reference():
    """The faster of two passes, so code and data evicted by the op just
    run do not count."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def child_reference():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken between ops; op k lies between samples k
    and k + 1."""

    def __init__(self, children: bool):
        self.sample = child_reference if children else loop_reference
        self.nominal = REFERENCE_CHILD_S if children else REFERENCE_LOOP_S
        self.samples = [self.sample()]

    def tick(self):
        self.samples.append(self.sample())

    def scale(self, k):
        return self.nominal / ((self.samples[k] + self.samples[k + 1]) / 2)


# --- the closed loop ----------------------------------------------------------


def measure(workload, seconds, tracer=None):
    """Run whole cycles until ``seconds`` have passed; (raw latencies,
    scaled latencies, op labels, failures)."""
    import workloads

    speed = HostSpeed(workload.children)
    latencies, labels, failures = [], [], []
    started = time.perf_counter()
    while True:
        for op in workload.cycle():
            if tracer is not None:
                tracer.begin_op(len(latencies))
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:
                error = exc
            latencies.append(time.perf_counter() - t0)
            labels.append(op.label)
            if tracer is not None:
                tracer.end_op()
            speed.tick()
            if error is not None:
                failures.append("%s: %s: %s" % (op.label, type(error).__name__, error))
                continue
            try:
                op.check(out)
            except workloads.CheckFailed as exc:
                failures.append("%s: %s" % (op.label, exc))
            except Exception as exc:
                failures.append("%s: check raised %s: %s" % (op.label, type(exc).__name__, exc))
        if time.perf_counter() - started >= seconds:
            scaled = [t * speed.scale(k) for k, t in enumerate(latencies)]
            return latencies, scaled, labels, failures


def tail(latencies):
    """Latency at the highest percentile with at least ten ops above it,
    with that percentile."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def loop_summary(latencies):
    tail_s, tail_pct = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "ops": len(latencies),
    }


def describe(raw, scaled, labels):
    """The loop summary of the scaled latencies, with the raw ones beside
    and the scaled median of each kind of op."""
    summary = loop_summary(scaled)
    summary["raw"] = loop_summary(raw)
    summary["raw_over_scaled"] = sum(raw) / sum(scaled)
    by_label = {}
    for label, t in zip(labels, scaled):
        by_label.setdefault(label, []).append(t)
    summary["p50_ms_by_op"] = {k: statistics.median(v) * 1e3 for k, v in sorted(by_label.items())}
    return summary


# --- reporting ----------------------------------------------------------------


def environment(args):
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, no threads",
    }


def emit(label, obj):
    print("%s: %s" % (label, json.dumps(obj, sort_keys=True)))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lie_thomas", "__init__.py")):
        print("perfbench: no lie_thomas package under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.probe:
        workloads.WORKLOADS[args.workload](args.seed).cycle()
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    setup = setup_seconds(args)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    emit("env", environment(args))

    if args.trace == 0:
        raw, latencies, labels, failures = measure(workload, args.seconds)
        summary = describe(raw, latencies, labels)
        values = {
            "setup_s": setup,
            "ops_per_s": summary["ops_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_tail_ms": summary["op_tail_ms"],
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = dict(END_TO_END)
        emit("loop", summary)
    else:
        import tracing

        imports = import_breakdown(args)
        raw_untraced, untraced, labels_untraced, failures = measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        workload.install_trace(tracer)
        try:
            raw_traced, traced, labels_traced, traced_failures = measure(
                workload, args.seconds / 2, tracer)
        finally:
            workload.remove_trace()
        failures += traced_failures
        latencies = untraced + traced
        u_p50 = statistics.median(untraced) * 1e3
        t_p50 = statistics.median(traced) * 1e3
        values = {name: 0 for name, _ in PER_LAYER}
        values.update(imports)
        by_op = describe(raw_untraced + raw_traced, latencies, labels_untraced + labels_traced)
        values.update(workload.layer_values(by_op["p50_ms_by_op"]))
        values.update({
            "inputs.repeated_share": workload.record()["repeated_input_share"],
            "trace.untraced_op_p50_ms": u_p50,
            "trace.traced_op_p50_ms": t_p50,
            "trace.overhead_ms": t_p50 - u_p50,
        })
        units = dict(PER_LAYER)
        unknown = set(values) - set(units)
        if unknown:
            raise RuntimeError("per-layer values without a declared metric: %s" % sorted(unknown))
        path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path, {"env": environment(args), "gaps": TRACE_GAPS})
        emit("trace", {"spans_file": os.path.relpath(path, ROOT), "gaps": TRACE_GAPS,
                       "untraced": describe(raw_untraced, untraced, labels_untraced),
                       "traced": describe(raw_traced, traced, labels_traced)})

    emit("record", workload.record())
    attempted = len(latencies)
    print("fail_ratio: %r (%d of %d ops failed)" % (len(failures) / attempted, len(failures),
                                                   attempted))
    for message in sorted(set(failures))[:10]:
        print("FAILED %s" % message)
    for name, value in values.items():
        print("%-44s %20r %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
