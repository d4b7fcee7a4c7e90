"""Benchmark-side tracing: spans and counts around calls into ``repro``.

The program has no tracer of its own yet, so the traced run wraps the
public functions each layer is entered through, exactly where the
widget pipeline calls them, and restores the originals afterwards:

==========================  ==============================================
layer                       wrapped call (as its caller looks it up)
==========================  ==============================================
md                          ``rin.construction.residue_distance_matrix``
rin                         ``RINBuilder.edges``, ``DynamicRIN.set_state``
graphkit.layout             ``core.pipeline.maxent_stress_layout``
graphkit measures           ``GraphMeasure.__call__``
vizbridge                   ``core.pipeline.graph_traces``
graphkit.service            ``ServiceExecutor.submit`` (submit → result)
==========================  ==============================================

Spans live in memory and can be written out as Chrome trace-event JSON
(open it in Perfetto or ``chrome://tracing``). With tracing off nothing
is wrapped, so the untraced run measures the program as shipped.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict


class Recorder:
    """Spans, duration samples and counts of one traced run.

    ``event_id`` is set by the load generator before each event and
    stamps every span recorded until the next one, including spans on
    the async pipeline's worker thread (one event is in flight at a time).
    """

    def __init__(self) -> None:
        self.event_id = -1
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, str, str, int, int, int]] = []
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the body and record it under ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else ""
        stack.append(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.samples[name].append((t1 - t0) / 1e6)
            self.spans.append(
                (self.event_id, name, parent, t0, t1, threading.get_ident())
            )

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete events, µs)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(s[3] for s in self.spans)
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "ts": (t0 - origin) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": 0,
                    "tid": tid,
                    "args": {"event": event, "parent": parent},
                }
                for event, name, parent, t0, t1, tid in self.spans
            ]
        }


def _timed(rec: Recorder, fn, name: str):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Wrap each layer's entry call for the duration of the block."""
    from repro.core import pipeline
    from repro.graphkit.service import ServiceExecutor
    from repro.rin import construction
    from repro.rin.dynamic import DynamicRIN
    from repro.rin.measures import GraphMeasure

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    patch(
        construction,
        "residue_distance_matrix",
        _timed(rec, construction.residue_distance_matrix, "md.distance"),
    )
    patch(
        pipeline,
        "maxent_stress_layout",
        _timed(rec, pipeline.maxent_stress_layout, "layout.solve"),
    )
    patch(
        pipeline,
        "graph_traces",
        _timed(rec, pipeline.graph_traces, "vizbridge.graph_traces"),
    )

    edges = construction.RINBuilder.edges

    def counted_edges(self, frame, cutoff):
        rec.counts["rin.builder.lookups"] += 1
        return edges(self, frame, cutoff)

    patch(construction.RINBuilder, "edges", counted_edges)

    set_state = DynamicRIN.set_state

    def timed_set_state(self, **kwargs):
        with rec.span("rin.set_state"):
            update = set_state(self, **kwargs)
        rec.samples["rin.edges_changed"].append(float(update.total))
        return update

    patch(DynamicRIN, "set_state", timed_set_state)

    call = GraphMeasure.__call__

    def timed_measure(self, g):
        with rec.span("measure"):
            return call(self, g)

    patch(GraphMeasure, "__call__", timed_measure)

    submit = ServiceExecutor.submit

    def timed_submit(self, fn, payload, dataset=None):
        t0 = time.perf_counter_ns()
        future = submit(self, fn, payload, dataset)
        future.add_done_callback(
            lambda _f: rec.samples["service.job"].append(
                (time.perf_counter_ns() - t0) / 1e6
            )
        )
        return future

    patch(ServiceExecutor, "submit", timed_submit)
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
