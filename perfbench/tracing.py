"""Spans recorded from outside the program.

A traced run replaces selected module attributes of ``lie_thomas`` with
timing wrappers (and puts the originals back afterwards), so calls the
package makes internally, such as ``determining_equations`` calling
``prolong``, show up as child spans.  Untraced runs install nothing, so
tracing costs nothing when it is off.

Each span is (op id, span id, parent span id, name, start, end).  Self time
is the span's duration minus the time its child spans cover; it is
accumulated per call and per op while the run goes, and the spans
themselves are kept in memory (up to a cap) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from contextlib import contextmanager

MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.op_id = -1
        self._next_id = 0
        self._stack = []  # [span id, child seconds]
        self._op_self = {}  # name -> self seconds inside the current op
        self.per_call = {}  # name -> array of self seconds, one per call
        self.totals = {}  # name -> array of whole durations, one per call
        self.per_op = {}  # name -> list of self seconds, one per op that called it
        self.values = {}  # name -> list of recorded values
        self._patches = []

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self):
        parent = self._stack[-1][0] if self._stack else -1
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, name, sid, parent, start, end):
        child = self._stack.pop()[1]
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        own = duration - child
        calls = self.per_call.get(name)
        if calls is None:
            calls = self.per_call[name] = array("d")
        calls.append(own)
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = array("d")
        totals.append(duration)
        self._op_self[name] = self._op_self.get(name, 0.0) + own
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((self.op_id, sid, parent, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name):
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, sid, parent, start, time.perf_counter())

    def wrap(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, start, time.perf_counter())
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_self = {}

    def end_op(self):
        for name, seconds in self._op_self.items():
            self.per_op.setdefault(name, []).append(seconds)
        self._op_self = {}
        self.op_id = -1

    def value(self, name, value):
        self.values.setdefault(name, []).append(value)

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` with a traced wrapper named ``name``;
        ``on_return`` is handed each result."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, on_return))
        else:
            replacement = self.wrap(name, raw, on_return)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unpatch(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries -----------------------------------------------------------

    def call_median(self, name):
        calls = self.per_call.get(name)
        return statistics.median(calls) if calls else 0.0

    def total_median(self, name):
        """Median whole duration per call, children included."""
        totals = self.totals.get(name)
        return statistics.median(totals) if totals else 0.0

    def op_median(self, name):
        ops = self.per_op.get(name)
        return statistics.median(ops) if ops else 0.0

    def value_median(self, name):
        values = self.values.get(name)
        return statistics.median(values) if values else 0

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, kept_spans=len(self.spans),
                                     dropped_spans=self.dropped)) + "\n")
            for op_id, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
