"""The unified metrics plane: Counter / Histogram + a registry.

Before this module the serving tier's counters were a patchwork of ad-hoc
ints scattered over the router (``dispatched``/``shed``), the worker
(``served_predictions``/``failed_requests``), the cluster's per-handle wire
accounting and the scheduler (``scheduled_events``/``completed_requests``).
Each had its own stats shape and none could be merged across processes.

Here every instrument is a tiny standalone object a component *owns* (so the
existing per-instance attributes keep their exact semantics -- a test that
asserts ``worker.served_predictions == 3`` still counts only that worker),
registered by name into a process-global :class:`MetricsRegistry` that holds
only weak references.  The registry's :meth:`~MetricsRegistry.snapshot`
aggregates all live instruments of a name (two routers in one process sum
into one ``pretzel_router_dispatched_total`` series, exactly what a scrape
wants), instruments die with their component, and snapshots from different
processes merge *exactly*:

* counters merge by addition;
* histograms use **fixed log2 latency buckets** (~1 us .. 32 s), so merging
  is element-wise bucket addition with zero re-binning error -- the property
  that lets one ``metrics`` worker message fold N worker registries into the
  cluster view.

Increments are GIL-atomic in the same sense as the scheduler's counters (a
preempted read-modify-write can drop one increment; acceptable for
telemetry, and it keeps the instruments lock-free on the hot paths).
Snapshots render as JSON (:meth:`MetricsRegistry.snapshot`) or
Prometheus-style text exposition (:func:`to_prometheus`).

Metric naming scheme: ``pretzel_<subsystem>_<what>[_total|_seconds]`` --
``_total`` for monotonic counters, ``_seconds`` for latency histograms.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKET_BOUNDS",
    "merge_snapshots",
    "to_prometheus",
]

#: fixed log2 latency bucket upper bounds (seconds): 2^-20 (~1 us) .. 2^5
#: (32 s), plus an implicit +Inf overflow bucket.  Fixed for every histogram
#: in every process, which is what makes cross-worker merges exact.
LATENCY_BUCKET_BOUNDS: List[float] = [2.0**exponent for exponent in range(-20, 6)]


class Counter:
    """A monotonic counter (``add`` accepts negatives for re-routed events)."""

    __slots__ = ("name", "_value", "__weakref__")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        self._value += amount

    def add(self, amount: int) -> None:
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self._value})"


class Histogram:
    """A latency histogram over the fixed log2 buckets.

    ``observe`` is a single ``bisect`` over 26 boundaries plus two adds --
    cheap enough for per-request paths (it is *not* placed on the
    per-prediction inline hot path; the tracer's head sampling covers that).
    """

    __slots__ = ("name", "_counts", "_sum", "_count", "__weakref__")

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self._counts = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, seconds: float) -> None:
        self._counts[bisect.bisect_left(LATENCY_BUCKET_BOUNDS, seconds)] += 1
        self._sum += seconds
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        return {"counts": list(self._counts), "sum": self._sum, "count": self._count}

    def reset(self) -> None:
        self._counts = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self._sum = 0.0
        self._count = 0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self._count})"


class MetricsRegistry:
    """Weakly-held instruments aggregated by name into one mergeable view."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, "weakref.WeakSet[Any]"] = {}
        self._kinds: Dict[str, str] = {}

    def counter(self, name: str) -> Counter:
        return self._new(Counter(name))

    def histogram(self, name: str) -> Histogram:
        return self._new(Histogram(name))

    def _new(self, instrument: Any) -> Any:
        with self._lock:
            known = self._kinds.get(instrument.name)
            if known is not None and known != instrument.kind:
                raise ValueError(
                    f"metric {instrument.name!r} already registered as {known}, "
                    f"cannot re-register as {instrument.kind}"
                )
            self._kinds[instrument.name] = instrument.kind
            self._instruments.setdefault(instrument.name, weakref.WeakSet()).add(
                instrument
            )
        return instrument

    def _live(self) -> Dict[str, List[Any]]:
        with self._lock:
            return {
                name: [inst for inst in insts]
                for name, insts in self._instruments.items()
            }

    def snapshot(self) -> Dict[str, Any]:
        """Aggregate every live instrument into a JSON-able snapshot.

        Instruments sharing a name are summed (counters) or
        bucket-merged (histograms); garbage-collected instruments simply
        stop contributing.
        """
        counters: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, instruments in self._live().items():
            if not instruments:
                continue
            kind = instruments[0].kind
            if kind == "counter":
                counters[name] = sum(inst.value for inst in instruments)
            else:
                merged = {
                    "counts": [0] * (len(LATENCY_BUCKET_BOUNDS) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                for inst in instruments:
                    _merge_histogram(merged, inst.snapshot())
                histograms[name] = merged
        return {"counters": counters, "histograms": histograms}

    def reset(self) -> None:
        """Zero every live instrument (a forked worker's fresh start)."""
        for instruments in self._live().values():
            for instrument in instruments:
                instrument.reset()


def _merge_histogram(into: Dict[str, Any], other: Dict[str, Any]) -> None:
    counts = into["counts"]
    for index, count in enumerate(other.get("counts", ())):
        if index < len(counts):
            counts[index] += count
    into["sum"] += other.get("sum", 0.0)
    into["count"] += other.get("count", 0)


def merge_snapshots(
    base: Optional[Dict[str, Any]], other: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold one registry snapshot into another (exact: fixed buckets).

    This is what the cluster's ``metrics`` round trips use to merge N worker
    registries into one view; counters add, histogram buckets add
    element-wise.
    """
    merged: Dict[str, Any] = {
        "counters": dict((base or {}).get("counters", {})),
        "histograms": {
            name: {"counts": list(h["counts"]), "sum": h["sum"], "count": h["count"]}
            for name, h in (base or {}).get("histograms", {}).items()
        },
    }
    if not other:
        return merged
    for name, value in other.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, histogram in other.get("histograms", {}).items():
        into = merged["histograms"].setdefault(
            name,
            {"counts": [0] * (len(LATENCY_BUCKET_BOUNDS) + 1), "sum": 0.0, "count": 0},
        )
        _merge_histogram(into, histogram)
    return merged


def to_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a (possibly merged) snapshot as Prometheus text exposition."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_number(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        histogram = snapshot["histograms"][name]
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(LATENCY_BUCKET_BOUNDS, histogram["counts"]):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{bound!r}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {histogram["count"]}')
        lines.append(f"{name}_sum {_number(histogram['sum'])}")
        lines.append(f"{name}_count {histogram['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))
