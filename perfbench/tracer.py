"""In-memory tracing of the package's public entry points, from outside it.

The package itself carries no instrumentation, so the traced run swaps
module and class attributes for timing wrappers and puts the originals
back afterwards.  Two kinds of wrapper exist:

* spans, for calls that take milliseconds: name, start, end, parent span,
  request id and a label (the engine kind or procedure being served);
* counters, for calls of a few microseconds, where a span per call would
  cost more than the call: a call count and the summed time, per label.

Spans of one request share its id; a span without an explicit request or
label inherits both from the span that encloses it.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from functools import wraps


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    request: object
    label: str | None
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        d = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "label": self.label,
        }
        d.update(self.extra)
        return d


class Tracer:
    """Spans and counters kept in memory until the run writes them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str | None], list] = {}
        self.label: str | None = None  # set by the workload between requests
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._requests = 0

    # -- recording ----------------------------------------------------------

    @property
    def current_label(self) -> str | None:
        return self._stack[-1].label if self._stack else self.label

    def open(self, name: str, request=None, label=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        if label is None:
            label = parent.label if parent is not None else self.label
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            end=None,
            parent=parent.id if parent is not None else None,
            request=request,
            label=label,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def new_request(self) -> int:
        self._requests += 1
        return self._requests

    def count(self, name: str, seconds: float) -> None:
        slot = self.counters.setdefault((name, self.current_label), [0, 0.0])
        slot[0] += 1
        slot[1] += seconds

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, counter=False, tag=None,
             new_request=False, memory=False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``tag(args)`` may return ``(request, label)`` for the span; with
        ``new_request`` every call opens a fresh request id; with ``memory``
        the span also records the call's peak traced allocation in bytes.
        """
        raw = owner.__dict__[attr]
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder is not None else raw
        tracer = self
        clock = self.clock

        if counter:
            @wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.count(name, clock() - t0)
        else:
            @wraps(fn)
            def wrapper(*args, **kwargs):
                request = label = None
                if tag is not None:
                    request, label = tag(args)
                if new_request:
                    request = tracer.new_request()
                span = tracer.open(name, request, label)
                if memory:
                    tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if memory:
                        span.extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                    tracer.close(span)

        setattr(owner, attr, binder(wrapper) if binder is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- queries ------------------------------------------------------------

    def counter(self, name: str, labels=None) -> tuple[int, float]:
        """(calls, seconds) of a counter, summed over ``labels`` (all if None)."""
        calls, secs = 0, 0.0
        for (n, label), (c, s) in self.counters.items():
            if n == name and (labels is None or label in labels):
                calls += c
                secs += s
        return calls, secs


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if b > s.start and a < s.end
        ]
        out[s.id] = s.duration - covered(kids)
    return out
