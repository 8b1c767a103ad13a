"""Distributed request tracing: contexts, spans, and the flight recorder.

One prediction crosses the cluster front door, the router, a wire encode, an
IPC hop, the worker's receive loop, the scheduler's ready queues, possibly a
coalesced :class:`~repro.core.scheduler.StageBatch`, and every physical
stage of the plan.  The profiler (PR 7) can say where *aggregate* time goes;
it cannot follow *one request* across the process boundary.  This module
can:

* :class:`TraceContext` is the propagated identity -- trace id, parent span
  id, sampled flag.  It is minted at the front door, rides the
  ``serialize_message`` envelope as a plain JSON dict (``to_wire`` /
  ``from_wire``) or the data-plane frame header as 32 fixed-width bytes
  (:func:`pack_trace_wire` / :func:`unpack_trace_wire`), and works unchanged
  over both the pipe and socket transports because it never touches the
  framing layer.
* :class:`Tracer` is the per-process recorder: head-based 1-in-N sampling
  (a counter and a modulo on the unsampled path -- the whole per-request
  cost when a request is not chosen), and a bounded ring-buffer *flight
  recorder* (``collections.deque(maxlen=...)``; appends are GIL-atomic, so
  executor threads record without a lock) holding the most recent spans.
* spans are plain JSON-able dicts::

      {"trace_id", "span_id", "parent_span_id", "name", "start",
       "duration", "process", "attributes"}

  ``start`` is epoch seconds (comparable across processes to wall-clock
  skew), ``duration`` is measured with ``perf_counter``.  A ``batch.form``
  span carries ``attributes["links"]`` -- the trace ids of every member of
  the coalesced batch -- because one batch span belongs to N traces.

Span taxonomy (parent → child): ``request`` → ``admission``, ``ipc``;
``ipc`` → ``wire.encode``, ``worker.receive``, ``queue.wait``,
``batch.form``, ``stage.execute``, ``reply.encode``.  Single-process
runtimes skip the wire spans and parent scheduler/stage spans directly
under ``request``.

:func:`trace_breakdown` is the payoff: it folds the ``stage.execute`` spans
of harvested traces into per-stage-signature latency shares -- the fig5
breakdown of the paper, reconstructed from live production traffic instead
of an offline harness.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "TraceContext",
    "Tracer",
    "TRACE_WIRE_BYTES",
    "pack_trace_wire",
    "unpack_trace_wire",
    "trace_breakdown",
    "format_trace_tree",
]


class TraceContext:
    """The identity a sampled request carries across hops.

    ``owns_root`` is local-only (never serialized): the hop that minted the
    context is the one that records the ``request`` root span when the
    request completes, so a cluster-minted trace is not double-rooted by the
    worker's runtime.
    """

    __slots__ = ("trace_id", "parent_span_id", "sampled", "owns_root")

    def __init__(
        self,
        trace_id: str,
        parent_span_id: Optional[str] = None,
        sampled: bool = True,
        owns_root: bool = False,
    ):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.sampled = sampled
        self.owns_root = owns_root

    def to_wire(self) -> Dict[str, Any]:
        """A JSON-native dict that rides the message envelope."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_wire(cls, payload: Optional[Dict[str, Any]]) -> Optional["TraceContext"]:
        """Rebuild a context on the far side of the wire (None-tolerant)."""
        if not payload or not payload.get("sampled") or "trace_id" not in payload:
            return None
        return cls(
            trace_id=str(payload["trace_id"]),
            parent_span_id=payload.get("parent_span_id"),
            sampled=True,
        )

    def child(self, parent_span_id: str) -> "TraceContext":
        """The same trace, re-parented under ``parent_span_id``."""
        return TraceContext(self.trace_id, parent_span_id, self.sampled)

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"parent_span_id={self.parent_span_id!r}, sampled={self.sampled})"
        )


#: every id this module mints is this many ASCII characters
_ID_CHARS = 16
#: size of the fixed-width wire form: trace id + parent span id
TRACE_WIRE_BYTES = 2 * _ID_CHARS


def _new_id() -> str:
    return uuid.uuid4().hex[:_ID_CHARS]


def pack_trace_wire(wire: Dict[str, Any]) -> Optional[bytes]:
    """Fixed-width form of a :meth:`TraceContext.to_wire` dict, for binary headers.

    The data-plane predict frame has no JSON envelope for the context to ride,
    so a sampled request carries its two ids as :data:`TRACE_WIRE_BYTES` raw
    ASCII bytes in the frame header instead -- the same path as an unsampled
    request, 32 bytes longer, rather than a detour over the envelope that
    would make traced requests unrepresentative of the ones they sample.
    Returns None for a context that does not fit (foreign-length or non-ASCII
    ids, an unsampled context): the caller keeps it on the envelope.
    """
    trace_id = wire.get("trace_id")
    parent = wire.get("parent_span_id")
    if (
        wire.get("sampled") is not True
        or len(wire) != 3
        or type(trace_id) is not str
        or type(parent) is not str
        or len(trace_id) != _ID_CHARS
        or len(parent) != _ID_CHARS
        or not (trace_id.isascii() and parent.isascii())
    ):
        return None
    return (trace_id + parent).encode("ascii")


def unpack_trace_wire(raw: bytes) -> Dict[str, Any]:
    """The :meth:`TraceContext.to_wire` dict :func:`pack_trace_wire` encoded."""
    text = str(raw, "ascii")
    return {
        "trace_id": text[:_ID_CHARS],
        "parent_span_id": text[_ID_CHARS:],
        "sampled": True,
    }


class Tracer:
    """Per-process span recorder with head sampling and a bounded buffer."""

    def __init__(
        self,
        enabled: bool = True,
        sample_rate: int = 64,
        buffer_size: int = 2048,
        process: str = "local",
    ):
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1 (1 traces every request)")
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.process = process
        self._lock = threading.Lock()
        self._spans: "collections.deque[Dict[str, Any]]" = collections.deque(
            maxlen=buffer_size
        )
        self._seen = 0
        self.sampled_total: Any = None  # bound lazily to registry counters
        self.spans_total: Any = None

    def bind_metrics(self, registry: Any) -> None:
        """Register the tracer's own counters on the unified metrics plane."""
        self.sampled_total = registry.counter("pretzel_trace_sampled_total")
        self.spans_total = registry.counter("pretzel_trace_spans_total")

    def configure(
        self,
        enabled: Optional[bool] = None,
        sample_rate: Optional[int] = None,
        buffer_size: Optional[int] = None,
        process: Optional[str] = None,
    ) -> None:
        """Reconfigure in place (last caller wins, like the profiler)."""
        if enabled is not None:
            self.enabled = enabled
        if sample_rate is not None:
            if sample_rate < 1:
                raise ValueError("sample_rate must be >= 1")
            self.sample_rate = sample_rate
        if process is not None:
            self.process = process
        if buffer_size is not None and buffer_size != self._spans.maxlen:
            if buffer_size < 1:
                raise ValueError("buffer_size must be >= 1")
            with self._lock:
                self._spans = collections.deque(self._spans, maxlen=buffer_size)

    # -- sampling ------------------------------------------------------------

    def maybe_trace(self) -> Optional[TraceContext]:
        """Head-sampling front door: 1-in-``sample_rate`` requests get a
        context (with the root span id pre-minted as ``parent_span_id``);
        the rest pay one increment and a modulo."""
        if not self.enabled:
            return None
        self._seen += 1
        if self._seen % self.sample_rate != 0:
            return None
        if self.sampled_total is not None:
            self.sampled_total.inc()
        return TraceContext(
            trace_id=_new_id(),
            parent_span_id=_new_id(),
            sampled=True,
            owns_root=True,
        )

    def new_span_id(self) -> str:
        return _new_id()

    # -- recording -----------------------------------------------------------

    def record(
        self,
        trace_id: str,
        name: str,
        duration: float,
        start: Optional[float] = None,
        span_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Append one completed span to the flight recorder.

        ``start`` defaults to ``now - duration`` in epoch seconds; pass it
        explicitly when the span ended earlier than "now".  Returns the span
        id so callers can parent children under it.
        """
        sid = span_id or _new_id()
        span = {
            "trace_id": trace_id,
            "span_id": sid,
            "parent_span_id": parent_span_id,
            "name": name,
            "start": (time.time() - duration) if start is None else start,
            "duration": duration,
            "process": self.process,
            "attributes": attributes or {},
        }
        self._spans.append(span)  # deque append is GIL-atomic
        if self.spans_total is not None:
            self.spans_total.inc()
        return sid

    # -- harvest -------------------------------------------------------------

    def dump(self, drain: bool = False) -> List[Dict[str, Any]]:
        """The buffered spans, oldest first; ``drain`` empties the buffer."""
        with self._lock:
            spans = list(self._spans)
            if drain:
                self._spans.clear()
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
        self._seen = 0

    def stats(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "buffer_size": self._spans.maxlen,
            "buffered_spans": len(self._spans),
            "requests_seen": self._seen,
            "sampled": self.sampled_total.value if self.sampled_total else 0,
            "spans_recorded": self.spans_total.value if self.spans_total else 0,
            "process": self.process,
        }


# -- analysis ----------------------------------------------------------------


def trace_breakdown(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Fold ``stage.execute`` spans into the fig5 per-stage latency shares.

    Keyed by stage signature; each entry carries total ``seconds``, span
    ``count``, the operator ``transform_names`` observed for the signature,
    and ``share`` of the summed stage-execute time.  Batched executions
    attribute their duration once per member event (the span's
    ``events`` attribute), mirroring how the offline fig5 harness charges
    per-record time.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span.get("name") != "stage.execute":
            continue
        attributes = span.get("attributes", {})
        signature = str(attributes.get("signature", "unknown"))
        entry = totals.setdefault(
            signature,
            {"seconds": 0.0, "count": 0, "operators": attributes.get("operators", [])},
        )
        entry["seconds"] += span.get("duration", 0.0)
        entry["count"] += 1
        if not entry["operators"] and attributes.get("operators"):
            entry["operators"] = attributes["operators"]
    grand_total = sum(entry["seconds"] for entry in totals.values())
    for entry in totals.values():
        entry["share"] = entry["seconds"] / grand_total if grand_total > 0 else 0.0
    return totals


def format_trace_tree(spans: Iterable[Dict[str, Any]], trace_id: str) -> str:
    """Render one trace's spans as an indented tree, children by start time.

    Spans whose parent is missing from the buffer (evicted from the ring, or
    the parent lives in a process that was not harvested) are shown as
    roots -- a flight recorder keeps recent history, not complete history.
    """
    trace = [span for span in spans if span.get("trace_id") == trace_id]
    if not trace:
        return f"(no spans for trace {trace_id})"
    by_id = {span["span_id"]: span for span in trace}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in trace:
        parent = span.get("parent_span_id")
        if parent not in by_id:
            parent = None  # orphan: promote to root
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: (span.get("start", 0.0), span["span_id"]))

    lines = [f"trace {trace_id}"]

    def walk(parent: Optional[str], depth: int) -> None:
        for span in children.get(parent, []):
            duration_ms = span.get("duration", 0.0) * 1e3
            attributes = span.get("attributes", {})
            suffix = ""
            if "signature" in attributes:
                suffix = f" [{attributes['signature']}]"
            elif "links" in attributes:
                suffix = f" [links={len(attributes['links'])}]"
            lines.append(
                f"{'  ' * (depth + 1)}{span['name']:<16} {duration_ms:9.3f} ms"
                f"  ({span['process']}){suffix}"
            )
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)
