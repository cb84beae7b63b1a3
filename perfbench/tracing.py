"""Spans recorded by the benchmark around its calls into the package.

A span is (name, start, end, parent, request).  Spans live in memory
until the run ends.  Requests are single-threaded and strictly nested, so
a span's self time is its duration minus the summed durations of its
direct children.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def begin_request(self, request: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans; `span(name)` nests under the innermost open span."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, request]
        self._stack: list[int] = []
        self._request: int | None = None

    def begin_request(self, request: int | None) -> None:
        self._request = request

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        return _Span(self, [name, 0.0, 0.0, parent, self._request])

    def self_times(self) -> list[float]:
        """Self time of every span, in the order the spans were opened."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def per_request(self, requests: set[int]) -> dict[str, list[float]]:
        """For each span name: summed self seconds per listed request.

        A request that never opened a span of that name counts as 0, so
        every list has one entry per request.
        """
        order = sorted(requests)
        slot = {r: i for i, r in enumerate(order)}
        totals: dict[str, list[float]] = {}
        for record, own in zip(self.spans, self.self_times()):
            name, request = record[0], record[4]
            if request not in slot:
                continue
            totals.setdefault(name, [0.0] * len(order))[slot[request]] += own
        return totals

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]

