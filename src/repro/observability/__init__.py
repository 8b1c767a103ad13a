"""Observability: distributed request tracing + the unified metrics plane.

Two process-global singletons live here, like the lock-wait registry
(:mod:`repro.profiling`): one :class:`~repro.observability.metrics.
MetricsRegistry` that every component registers its instruments into, and
one :class:`~repro.observability.tracing.Tracer` flight recorder.
``configure()`` is last-caller-wins (a test that wants ``sample_rate=1``
can say so after the cluster applied its config), and
``attach_process()`` is the fork barrier: a forked worker inherits
the parent's buffer and counter values, so the worker zeroes both and
relabels the tracer with its worker id before serving.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.observability.metrics import (
    LATENCY_BUCKET_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    to_prometheus,
)
from repro.observability.tracing import (
    TraceContext,
    Tracer,
    format_trace_tree,
    trace_breakdown,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKET_BOUNDS",
    "merge_snapshots",
    "to_prometheus",
    "TraceContext",
    "Tracer",
    "trace_breakdown",
    "format_trace_tree",
    "registry",
    "tracer",
    "configure",
    "attach_process",
]

_REGISTRY = MetricsRegistry()
_TRACER = Tracer()
_TRACER.bind_metrics(_REGISTRY)


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-global tracer / flight recorder."""
    return _TRACER


def configure(
    enabled: Optional[bool] = None,
    sample_rate: Optional[int] = None,
    buffer_size: Optional[int] = None,
    process: Optional[str] = None,
) -> Tracer:
    """Reconfigure the global tracer (last caller wins) and return it."""
    _TRACER.configure(
        enabled=enabled,
        sample_rate=sample_rate,
        buffer_size=buffer_size,
        process=process,
    )
    return _TRACER


def attach_process(process: str) -> None:
    """Adopt this process's identity after a fork (or spawn).

    Workers fork from the cluster and inherit its span buffer and instrument
    values; without this reset every parent-side span would be reported twice
    (once by each process) and merged metrics would double-count the
    parent's history.  A spawned worker starts clean but still wants the
    process label.
    """
    _TRACER.configure(process=process)
    _TRACER.clear()
    _REGISTRY.reset()


def snapshot() -> Dict[str, Any]:
    """Shorthand for ``registry().snapshot()``."""
    return _REGISTRY.snapshot()
