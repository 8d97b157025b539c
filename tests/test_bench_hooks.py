"""The benchmark's traced runs find every patch point and put it back.

``perfbench/run.py --trace 1`` replaces the program attributes each
in-process workload names with timing wrappers.  Installing and removing
those wrappers here makes a renamed or removed attribute fail in the test
suite rather than in a benchmark run.  The test imports perfbench and
changes nothing under it.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
BENCH_MODULES = ("gen", "golden", "tracing", "workloads")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    yield importlib.import_module("workloads"), importlib.import_module("tracing")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def _raw(owner, attr):
    """The attribute as the tracer reads it: from a class's own dict, so a
    classmethod is the descriptor itself."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("name", ["Derive", "Classify", "Grid"])
def test_trace_hooks_install_and_remove(bench, name):
    workloads, tracing = bench
    workload = getattr(workloads, name)(seed=1)
    originals = {(id(owner), attr): _raw(owner, attr) for owner, attr, _ in workload.trace_points}
    assert originals
    tracer = tracing.Tracer()
    workload.install_trace(tracer)
    try:
        patched = list(tracer._patches)
        assert originals.keys() <= {(id(owner), attr) for owner, attr, _ in patched}
        for owner, attr, raw in patched:
            assert _raw(owner, attr) is not raw, attr
    finally:
        workload.remove_trace()
    for owner, attr, raw in patched:
        assert _raw(owner, attr) is raw, attr
    for owner, attr, _ in workload.trace_points:
        assert _raw(owner, attr) is originals[(id(owner), attr)], attr
