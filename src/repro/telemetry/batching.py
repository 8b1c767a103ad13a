"""Stage-batching telemetry: batch and event counters.

The batch engine coalesces queued stage events that share a physical-stage
signature into one :class:`~repro.core.scheduler.StageBatch`.  This module
counts, per physical stage, how many batches were formed and how many events
they carried, so ``stats()["stage_batching"]`` and the queueing simulator
report the *observed* mean batch size.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

__all__ = ["StageBatchTelemetry"]


class StageBatchTelemetry:
    """Thread-safe per-signature counters for stage-level batching."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: signature -> number of batches formed for that stage
        self._batches: Dict[str, int] = {}
        #: signature -> total events carried by those batches
        self._events: Dict[str, int] = {}
        #: signature -> names of the stage's operators without a vectorized
        #: batch kernel (``supports_batch=False``); the runtime records these
        #: at plan registration so loop-fallback stages are visible in
        #: ``stats()["stage_batching"]`` instead of silently slow.
        self._loop_fallbacks: Dict[str, List[str]] = {}

    # -- recording -----------------------------------------------------------

    def record(self, signature: str, batch_size: int) -> None:
        """Record one formed batch of ``batch_size`` events for ``signature``."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with self._lock:
            self._batches[signature] = self._batches.get(signature, 0) + 1
            self._events[signature] = self._events.get(signature, 0) + batch_size

    def note_loop_fallback(self, signature: str, operator_names: List[str]) -> None:
        """Record that ``signature``'s batches run a per-record loop.

        Called at plan registration for every stage whose
        :attr:`~repro.core.oven.physical.PhysicalStage.supports_batch` is
        False; ``operator_names`` are the offending operators (the explicit
        escape hatch of the batch-first operator contract).
        """
        with self._lock:
            self._loop_fallbacks[signature] = list(operator_names)

    # -- aggregates ----------------------------------------------------------

    @property
    def total_batches(self) -> int:
        with self._lock:
            return sum(self._batches.values())

    @property
    def total_events(self) -> int:
        with self._lock:
            return sum(self._events.values())

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

        This clears the signature's loop-fallback record too: the stage it
        described no longer exists, and a re-registered plan with the same
        signature re-records it at registration -- while keeping it would
        leak an entry per churned plan.
        """
        with self._lock:
            self._batches.pop(signature, None)
            self._events.pop(signature, None)
            self._loop_fallbacks.pop(signature, None)
