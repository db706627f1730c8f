"""Per-layer tracing from outside the program.

While installed, a Tracer replaces each traced public function of a layer at
the name its caller looks up (simkernel's own binding of `predict_belief`,
the `operation` module's `cpnp_allocate`, ...) with a wrapper that records a
span (name, start, end, parent, raised) in memory. A layer's self time is its
spans' time minus the time of their child spans. Uninstalling restores every
binding, so untraced runs in the same process execute the original code.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from contextlib import contextmanager

from coopnav import inference, operation, simkernel

RUN = "simkernel.run"
CPNP = "operation.cpnp_allocate"
PREDICTED_COV = "operation.predicted_covariance"
HTNA = "operation.htna_decide"

# (module, attribute the caller looks up, span name)
TARGETS = (
    (simkernel, "arbitrate", "simkernel.arbitrate"),
    (simkernel, "neighbor_update", "protocol.neighbor_update"),
    (simkernel, "ranging_fsm_step", "protocol.ranging_fsm_step"),
    (simkernel, "predict_belief", "model.predict_belief"),
    (inference, "spbp_update", "inference.spbp_update"),
    (inference, "ls_estimate", "inference.ls_estimate"),
    (operation, "cpnp_allocate", CPNP),
    (operation, "predicted_covariance", PREDICTED_COV),
    (operation, "htna_decide", HTNA),
    (operation, "unit_direction", "operation.unit_direction"),
)


class _CountingHeapq:
    """Stands in for simkernel's `heapq`: counts the events the loop pops."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.pops = 0

    def heappop(self, queue):
        self.pops += 1
        return heapq.heappop(queue)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, raised)
        self._open: list = []  # indices of the spans being timed
        self.heap = _CountingHeapq()
        self.allocations: list = []  # (problem, result) of each cpnp_allocate
        self.decisions: list = []  # result of each htna_decide

    def wrap(self, name: str, fn, keep=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            raised = True
            start = clock()
            try:
                value = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, raised)
            if keep is not None:
                keep(args, value)
            return value

        return traced

    @contextmanager
    def installed(self):
        keep = {
            CPNP: lambda args, value: self.allocations.append((args[0], value)),
            HTNA: lambda args, value: self.decisions.append(value),
        }
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        saved.append((simkernel, "heapq", simkernel.heapq))
        try:
            for mod, attr, name in TARGETS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), keep.get(name)))
            simkernel.heapq = self.heap
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def run(self, sim):
        """Run a Simulation under a root span; install() must be active."""
        return self.wrap(RUN, sim.run)()

    def layer_totals(self) -> dict:
        """Span name -> [self seconds, calls, calls that raised]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent, _raised in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0, 0])
        for i, (name, start, end, _parent, raised) in enumerate(spans):
            t = totals[name]
            t[0] += end - start - child[i]
            t[1] += 1
            t[2] += raised
        return totals

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans of `name` whose direct parent is a `parent_name` span."""
        spans = self.spans
        return sum(1 for n, _s, _e, p, _r in spans
                   if n == name and p >= 0 and spans[p][0] == parent_name)
