"""Span tracer that wraps rrw's public functions from outside the package.

Each traced function is replaced in every ``rrw`` module namespace that
holds it, so calls made between rrw modules (``equivalence`` calling
``enumerate_language``, ``textio`` calling ``check``) are recorded as well as
calls made by the benchmark. Spans live in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# The layer boundaries, as (module, function). A span is named
# "<module>.<function>".
SPANS = (
    ("textio", "parse_system"),
    ("textio", "serialize_system"),
    ("core", "close_order"),
    ("core", "check"),
    ("constructions", "apply_construction"),
    ("engine", "enumerate_language"),
    ("engine", "find_derivation"),
    ("engine", "replay_trace"),
    ("equivalence", "reference_enumerate"),
    ("equivalence", "bounded_equiv"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in SPANS)

# Called once per activation on the hot path, so it is counted, not timed.
COUNTED = "core.effective_conditions"

# The benchmark's own span around each job; its self time is the glue code
# of the benchmark (argument building, output decoding, trace rebuilding).
JOB_SPAN = "bench.job"


def rrw_modules():
    """Every loaded module of the rrw package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rrw" or name.startswith("rrw."))]


class Tracer:
    """Records spans (name, start, end, parent, job) and call counts."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.counts = Counter()
        self._stack = []
        self._job = None
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {m.__name__: m for m in rrw_modules()}
        namespaces = list(modules.values())
        for mod, fn in SPANS:
            original = getattr(modules[f"rrw.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._undo.append((ns, attr, original))
        component = modules["rrw.core"].Component
        original = component.effective_conditions
        counts = self.counts

        @functools.wraps(original)
        def counted(self_, *args, **kwargs):
            counts[COUNTED] += 1
            return original(self_, *args, **kwargs)

        component.effective_conditions = counted
        self._undo.append((component, "effective_conditions", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self._job]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    # -- jobs --------------------------------------------------------------

    def job(self, job_id, run):
        """Run ``run()`` inside a job span; returns (result, counted calls)."""
        before = self.counts[COUNTED]
        self._job = job_id
        try:
            return self._wrap(JOB_SPAN, run)(), self.counts[COUNTED] - before
        finally:
            self._job = None

    # -- results -----------------------------------------------------------

    def summary(self, seconds):
        """Per span name: calls, total_s and self_s.

        ``seconds(start, end)`` gives a span's duration. A span's self time
        is its duration minus its children's durations. total_s counts only
        the outermost span of a name, so a function that reaches itself
        through another traced function is not counted twice.
        """
        durations = [seconds(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in SPAN_NAMES + (JOB_SPAN,)}
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += durations[i] - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["total_s"] += durations[i]
        return out

    def dump(self, path):
        """Write the spans as JSON, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - origin, 9), round(end - origin, 9),
                 parent, job]
                for name, start, end, parent, job in self.spans]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "job"],
               "spans": rows, "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
