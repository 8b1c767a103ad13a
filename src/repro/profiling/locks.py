"""Named-lock instrumentation: wait-time telemetry cheap enough to leave on.

The runtime's hot locks (arena metadata, cluster phase transitions, scheduler
queues, worker channels) are wrapped in :class:`ProfiledLock` /
:class:`ProfiledRLock`.  The wrappers add exactly one extra C call to the
*uncontended* path -- a non-blocking ``acquire(False)`` that usually succeeds
-- and only a contended acquisition pays two ``perf_counter`` reads to record
how long the thread actually waited.  Wait time is accumulated per lock
*name* in a process-global :class:`LockWaitRegistry`, so all per-plan locks
(or the queue lock of every scheduler) share a single row in
``stats()["profile"]["locks"]``.

The counters are telemetry-grade: they are updated with plain ``+=`` on
attributes, which the GIL makes atomic per bytecode pair but not across the
read-modify-write.  A preemption exactly between the read and the store can
drop one increment; that is acceptable for wait-time accounting and keeps
the fast path free of any further synchronization.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

__all__ = [
    "LockWaitRegistry",
    "ProfiledLock",
    "ProfiledRLock",
    "GLOBAL_LOCK_REGISTRY",
]


class _LockStats:
    """Accumulators for one lock name (shared by every lock with the name)."""

    __slots__ = ("name", "acquisitions", "contended", "wait_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.acquisitions = 0
        self.contended = 0
        self.wait_seconds = 0.0

    def clear(self) -> None:
        self.acquisitions = 0
        self.contended = 0
        self.wait_seconds = 0.0


class LockWaitRegistry:
    """Process-global name -> wait-time accumulators for profiled locks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[str, _LockStats] = {}

    def stats_for(self, name: str) -> _LockStats:
        """The (shared, long-lived) accumulator object for ``name``."""
        with self._lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats[name] = _LockStats(name)
            return stats

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-name wait telemetry (for ``stats()["profile"]["locks"]``)."""
        with self._lock:
            entries = list(self._stats.values())
        return {
            entry.name: {
                "acquisitions": entry.acquisitions,
                "contended": entry.contended,
                "wait_seconds": round(entry.wait_seconds, 6),
            }
            for entry in entries
        }

    def reset(self) -> None:
        """Zero every accumulator (live locks keep recording into them)."""
        with self._lock:
            for entry in self._stats.values():
                entry.clear()


#: the default registry every runtime lock records into
GLOBAL_LOCK_REGISTRY = LockWaitRegistry()


class ProfiledLock:
    """A ``threading.Lock`` that records how long contended acquires waited.

    Drop-in for the subset of the Lock API the runtime uses (``acquire`` /
    ``release`` / context manager / ``locked``).  The uncontended fast path is
    a single extra non-blocking ``acquire`` attempt; only a failed attempt --
    i.e. actual contention -- pays the timing calls.
    """

    __slots__ = ("_lock", "_stats")

    def __init__(self, name: str, registry: Optional[LockWaitRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._stats = (registry or GLOBAL_LOCK_REGISTRY).stats_for(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stats = self._stats
        if self._lock.acquire(False):
            stats.acquisitions += 1
            return True
        if not blocking:
            return False
        started = time.perf_counter()
        acquired = self._lock.acquire(True, timeout)
        stats.wait_seconds += time.perf_counter() - started
        stats.contended += 1
        if acquired:
            stats.acquisitions += 1
        return acquired

    def release(self) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release()


class ProfiledRLock:
    """Reentrant variant of :class:`ProfiledLock` (same fast-path contract).

    A reentrant ``acquire(False)`` by the owning thread succeeds immediately,
    so nested acquisitions stay on the one-extra-call fast path.
    """

    __slots__ = ("_lock", "_stats")

    def __init__(self, name: str, registry: Optional[LockWaitRegistry] = None) -> None:
        self._lock = threading.RLock()
        self._stats = (registry or GLOBAL_LOCK_REGISTRY).stats_for(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stats = self._stats
        if self._lock.acquire(False):
            stats.acquisitions += 1
            return True
        if not blocking:
            return False
        started = time.perf_counter()
        acquired = self._lock.acquire(True, timeout)
        stats.wait_seconds += time.perf_counter() - started
        stats.contended += 1
        if acquired:
            stats.acquisitions += 1
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release()
