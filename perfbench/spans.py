"""In-memory spans recorded around each public call into a layer.

A span is ``[name, start_ns, end_ns, parent, request_id]``.  Span names
are layer names; the roots are ``phase:<name>`` spans whose self time is
the residual that no layer span covers.  Spans stay in memory and are
dumped once, when the benchmark ends.  :data:`NULL_SPANS` is the no-op
recorder untraced runs use.
"""

from __future__ import annotations

import contextlib
import json
import time

#: layers whose self time the traced run reports (trace.self_share.*).
LAYERS = (
    "host", "lang", "vm", "dift", "ontrac", "lake.store", "lake.format",
    "lake.query", "slicing", "service", "bench",
)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        rec = [name, time.perf_counter_ns(), 0, parent, rid]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> tuple[dict[str, int], int, int]:
        """``(layer -> self ns, residual ns, root ns)``.

        A span's self time is its duration minus its children's
        durations.  Root (phase) self time is the residual.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict[str, int] = {}
        residual = root = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_ns[i]
            if parent < 0:
                residual += own
                root += end - start
            else:
                layers[name] = layers.get(name, 0) + own
        return layers, residual, root

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": n, "start_ns": s, "end_ns": e, "parent": p, "rid": r}
                    for n, s, e, p, r in self.spans
                ],
                fh,
            )


class _NullSpans:
    _ctx = contextlib.nullcontext()

    def span(self, name: str, rid=None):
        return self._ctx


NULL_SPANS = _NullSpans()
