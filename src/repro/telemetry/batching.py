"""Stage-batching telemetry: batch-size and occupancy counters.

The batch engine coalesces queued stage events that share a physical-stage
signature into one :class:`~repro.core.scheduler.StageBatch`.  This module
counts, per physical stage, how many batches were formed and how many events
they carried, so experiments can report the *observed* mean batch size and the
occupancy against the configured ``max_stage_batch_size`` cap.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

__all__ = ["StageBatchTelemetry"]


class StageBatchTelemetry:
    """Thread-safe per-signature counters for stage-level batching."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: signature -> number of batches formed for that stage
        self._batches: Dict[str, int] = {}
        #: signature -> total events carried by those batches
        self._events: Dict[str, int] = {}
        #: signature -> largest batch observed
        self._max_observed: Dict[str, int] = {}
        #: signature -> summed coalescible backlog observed at pull time
        self._backlog_sum: Dict[str, int] = {}
        #: signature -> names of the stage's operators without a vectorized
        #: batch kernel (``supports_batch=False``); the runtime records these
        #: at plan registration so loop-fallback stages are visible in
        #: ``stats()["stage_batching"]`` instead of silently slow.
        self._loop_fallbacks: Dict[str, List[str]] = {}

    # -- recording -----------------------------------------------------------

    def record(self, signature: str, batch_size: int, backlog: Optional[int] = None) -> None:
        """Record one formed batch of ``batch_size`` events for ``signature``.

        ``backlog`` is the coalescible queue depth the scheduler's signature
        index observed behind the batch leader at pull time; the per-signature
        mean backlog feeds the backlog column of :meth:`per_stage_rows`.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with self._lock:
            self._batches[signature] = self._batches.get(signature, 0) + 1
            self._events[signature] = self._events.get(signature, 0) + batch_size
            if batch_size > self._max_observed.get(signature, 0):
                self._max_observed[signature] = batch_size
            if backlog is not None:
                self._backlog_sum[signature] = self._backlog_sum.get(signature, 0) + backlog

    def note_loop_fallback(self, signature: str, operator_names: List[str]) -> None:
        """Record that ``signature``'s batches run a per-record loop.

        Called at plan registration for every stage whose
        :attr:`~repro.core.oven.physical.PhysicalStage.supports_batch` is
        False; ``operator_names`` are the offending operators (the explicit
        escape hatch of the batch-first operator contract).
        """
        with self._lock:
            self._loop_fallbacks[signature] = list(operator_names)

    def loop_fallback_stages(self) -> Dict[str, List[str]]:
        """Stage signature -> loop-fallback operator names (maybe empty)."""
        with self._lock:
            return {sig: list(names) for sig, names in self._loop_fallbacks.items()}

    # -- aggregates ----------------------------------------------------------

    @property
    def total_batches(self) -> int:
        with self._lock:
            return sum(self._batches.values())

    @property
    def total_events(self) -> int:
        with self._lock:
            return sum(self._events.values())

    def mean_batch_size(self, signature: Optional[str] = None) -> float:
        """Observed mean events per batch, overall or for one stage."""
        with self._lock:
            if signature is not None:
                batches = self._batches.get(signature, 0)
                events = self._events.get(signature, 0)
            else:
                batches = sum(self._batches.values())
                events = sum(self._events.values())
        if batches == 0:
            return 0.0
        return events / batches

    def occupancy(self, max_batch_size: int, signature: Optional[str] = None) -> float:
        """Observed mean batch size as a fraction of the configured cap."""
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        return self.mean_batch_size(signature) / max_batch_size

    def mean_backlog(self, signature: Optional[str] = None) -> float:
        """Mean coalescible backlog observed behind batch leaders at pull time."""
        with self._lock:
            if signature is not None:
                batches = self._batches.get(signature, 0)
                backlog = self._backlog_sum.get(signature, 0)
            else:
                batches = sum(self._batches.values())
                backlog = sum(self._backlog_sum.values())
        if batches == 0:
            return 0.0
        return backlog / batches

    # -- reporting -----------------------------------------------------------

    def per_stage_rows(self) -> List[Dict[str, Any]]:
        """One report row per stage signature (for ``format_table``)."""
        with self._lock:
            rows = [
                {
                    "stage": signature[:12],
                    "batches": self._batches[signature],
                    "events": self._events[signature],
                    "mean_batch_size": self._events[signature] / self._batches[signature],
                    "max_batch_size": self._max_observed[signature],
                    "mean_backlog": (
                        self._backlog_sum.get(signature, 0) / self._batches[signature]
                    ),
                }
                for signature in sorted(self._batches, key=str)
            ]
        return rows

    def snapshot(self) -> Dict[str, Any]:
        """Aggregate counters as a plain dict (embedded in runtime stats)."""
        with self._lock:
            batches = sum(self._batches.values())
            events = sum(self._events.values())
            return {
                "batches": batches,
                "events": events,
                "mean_batch_size": (events / batches) if batches else 0.0,
                "stages": len(self._batches),
                "loop_fallback_stages": {
                    sig: list(names) for sig, names in self._loop_fallbacks.items()
                },
            }

    def forget(self, signature: str) -> None:
        """Drop every counter for one signature (its last plan unregistered).

        Unlike :meth:`reset` this *does* clear the signature's loop-fallback
        record: the stage it described no longer exists, and a re-registered
        plan with the same signature re-records it at registration -- while
        keeping it would leak an entry per churned plan.
        """
        with self._lock:
            self._batches.pop(signature, None)
            self._events.pop(signature, None)
            self._max_observed.pop(signature, None)
            self._backlog_sum.pop(signature, None)
            self._loop_fallbacks.pop(signature, None)

    def reset(self) -> None:
        """Clear the accumulating counters.

        The loop-fallback records survive a reset on purpose: they are
        written once, at plan registration, and cannot re-accumulate from
        traffic -- clearing them would silently re-hide un-vectorized stages
        that are still registered.
        """
        with self._lock:
            self._batches.clear()
            self._events.clear()
            self._max_observed.clear()
            self._backlog_sum.clear()
