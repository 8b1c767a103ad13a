"""The harness's own in-memory spans, recorded around calls into each layer.

A span is (name, start, end, parent, request id); spans of one request share
the id.  Spans stay in memory and are written out when the run ends.  A
layer's *self time* is its span's duration minus the part of that interval
its child spans cover (children may overlap: the batch engine's executors
run stages in parallel).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanRecorder", "covered_seconds"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional["Span"], request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_seconds(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


class _OpenSpan:
    """Context manager of one span (a class, not a generator: it is on the
    timed path of every replayed call, so entering it must stay cheap)."""

    __slots__ = ("_recorder", "_name", "_stack", "span")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> Span:
        recorder = self._recorder
        stack = self._stack = recorder._stack()
        owner_stack = recorder._owner_stack
        parent = stack[-1] if stack else (owner_stack[-1] if owner_stack else None)
        span = self.span = Span(self._name, 0.0, parent, recorder.request)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def __exit__(self, *exc_info: Any) -> None:
        span = self.span
        span.end = time.perf_counter()
        self._stack.pop()
        self._recorder.spans.append(span)


class SpanRecorder:
    """Collects spans; nesting follows each thread's stack of open spans.

    A span opened on a thread with no open span of its own (an executor
    thread running a stage for the request the replaying thread is inside)
    is parented to the replaying thread's innermost open span.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = -1
        self._owner = threading.get_ident()
        self._owner_stack: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_OpenSpan":
        """``with recorder.span(name):`` records one span around the block."""
        return _OpenSpan(self, name)

    def add(self, name: str, start: float, end: float, request: int) -> None:
        """Record a finished, parentless span (the live client's round trips)."""
        span = Span(name, start, None, request)
        span.end = end
        self.spans.append(span)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with a span of this name around every call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # -- analysis -----------------------------------------------------------

    def seconds(self, name: str) -> List[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def self_seconds(self, prefix: str) -> List[float]:
        """Self time of every span whose name starts with ``prefix``."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append((span.start, span.end))
        return [
            span.seconds - covered_seconds(span.start, span.end, children.get(id(span), ()))
            for span in self.spans
            if span.name.startswith(prefix)
        ]

    def dump(self, path: Any) -> None:
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            {
                "id": position,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)) if span.parent is not None else None,
                "request": span.request,
            }
            for position, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
