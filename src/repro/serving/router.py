"""Shard router: plan placement, least-in-flight dispatch, admission control.

The cluster front door never executes plans; it decides *where* each request
runs:

* **Placement** uses a consistent-hash ring (:class:`ConsistentHashRing`)
  with virtual nodes, so each plan lands on a stable subset of workers
  (``placement_replicas``) and adding a worker moves only ~1/N of the plans.
* **Dispatch** picks, among a plan's placed workers, the one with the fewest
  in-flight dispatches, ties broken by worker id.  That count is a worker's
  whole load: a worker runs each predict inline and keeps no queue, so the
  router needs nothing from it but the reply.
* **Admission control** sheds load instead of queueing without bound: when
  every placed worker already carries ``max_inflight_per_worker`` in-flight
  dispatches, the router raises :class:`BackpressureError` -- a typed error
  the client can retry against -- and counts the shed in its stats.
* **Membership** is dynamic: the control plane calls :meth:`evict_worker`
  when a worker dies (drops it from the ring, from every placement and from
  the load books) and :meth:`set_placement` after re-homing plans onto
  survivors.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Dict, List, Optional, Sequence

from repro.observability import registry
from repro.serving.control.failure import WorkerFailedError

__all__ = ["BackpressureError", "ConsistentHashRing", "ShardRouter"]


class BackpressureError(RuntimeError):
    """The cluster is saturated; the request was shed, not queued.

    Raised by the router when every worker a plan is placed on already holds
    ``max_inflight_per_worker`` in-flight dispatches.  Retryable by contract
    (``retryable`` is True, like :class:`~repro.serving.control.failure.
    WorkerFailedError`); carries the load the router observed so clients can
    implement informed backoff.
    """

    retryable = True

    def __init__(self, plan_id: str, loads: Dict[str, int], max_inflight: int):
        self.plan_id = plan_id
        self.loads = dict(loads)
        self.max_inflight = max_inflight
        super().__init__(
            f"admission control shed a request for {plan_id!r}: every placed worker "
            f"is at the in-flight limit ({max_inflight}); loads={self.loads}"
        )


def _hash64(key: str) -> int:
    """Stable 64-bit hash (md5-based, independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """A consistent-hash ring with virtual nodes over worker ids."""

    def __init__(self, nodes: Sequence[str], vnodes: int = 64):
        if not nodes:
            raise ValueError("the ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes = list(dict.fromkeys(nodes))
        points = []
        for node in self._nodes:
            for replica in range(vnodes):
                points.append((_hash64(f"{node}#{replica}"), node))
        points.sort()
        self._hashes = [point[0] for point in points]
        self._owners = [point[1] for point in points]

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def placement(self, key: str, replicas: int = 1) -> List[str]:
        """The ``replicas`` distinct nodes owning ``key``, in ring order."""
        replicas = max(1, min(replicas, len(self._nodes)))
        start = bisect.bisect(self._hashes, _hash64(key)) % len(self._owners)
        placed: List[str] = []
        for step in range(len(self._owners)):
            node = self._owners[(start + step) % len(self._owners)]
            if node not in placed:
                placed.append(node)
                if len(placed) == replicas:
                    break
        return placed


class ShardRouter:
    """Route plan traffic onto workers; shed when the shard is saturated.

    The router is deliberately ignorant of transport: callers ``acquire`` a
    worker id before dispatching and ``release`` it when the reply arrives.
    That keeps it trivially testable and reusable by the simulator.

    The constructor's ``backlog_ttl_seconds`` and :meth:`release`'s
    ``backlog`` are accepted and ignored, kept only for their one remaining
    caller: ``benchmarks/harness/layers.py`` (``run_traced``) passes both
    from when workers reported a queue depth.  Delete them once it stops.
    """

    def __init__(
        self,
        worker_ids: Sequence[str],
        replicas: int = 2,
        max_inflight_per_worker: int = 32,
        vnodes: int = 64,
        backlog_ttl_seconds: Optional[float] = None,
    ):
        if max_inflight_per_worker < 1:
            raise ValueError("max_inflight_per_worker must be >= 1")
        self.ring: Optional[ConsistentHashRing] = ConsistentHashRing(worker_ids, vnodes=vnodes)
        self.replicas = replicas
        self.max_inflight_per_worker = max_inflight_per_worker
        self._lock = threading.Lock()
        self._placements: Dict[str, List[str]] = {}
        self._inflight: Dict[str, int] = {worker: 0 for worker in self.ring.nodes}
        self._evicted: List[str] = []
        #: registry-backed instruments; ``dispatched`` / ``shed`` remain as
        #: read-only properties with per-router-instance semantics
        self._dispatched_total = registry().counter("pretzel_router_dispatched_total")
        self._shed_total = registry().counter("pretzel_router_shed_total")

    @property
    def dispatched(self) -> int:
        return self._dispatched_total.value

    @property
    def shed(self) -> int:
        return self._shed_total.value

    # -- placement -----------------------------------------------------------

    def place(self, plan_id: str, replicas: Optional[int] = None) -> List[str]:
        """Workers hosting ``plan_id`` (memoized, consistent-hash placed)."""
        with self._lock:
            placed = self._placements.get(plan_id)
            if placed is None:
                if self.ring is None:
                    raise WorkerFailedError(None, plan_id, "no surviving workers to place on")
                placed = self.ring.placement(plan_id, replicas or self.replicas)
                self._placements[plan_id] = placed
            return list(placed)

    def placements(self) -> Dict[str, List[str]]:
        with self._lock:
            return {plan: list(workers) for plan, workers in self._placements.items()}

    def forget(self, plan_id: str) -> None:
        """Drop a memoized placement (unregister, or registration rollback)."""
        with self._lock:
            self._placements.pop(plan_id, None)

    def set_placement(self, plan_id: str, worker_ids: Sequence[str]) -> None:
        """Overwrite a plan's placement (control-plane re-homing).

        Workers no longer in the membership are dropped: a fail-over that
        computed its survivor list before a *second* concurrent death must
        not reinstate the newly dead worker (``evict_worker`` and this method
        serialize on the router lock, so the filter is race-free).
        """
        with self._lock:
            self._placements[plan_id] = [
                worker for worker in worker_ids if worker in self._inflight
            ]

    # -- membership ------------------------------------------------------------

    def evict_worker(self, worker_id: str) -> None:
        """Remove a dead worker from the ring, every placement and the books.

        Future ``place`` calls hash over the survivors only; existing
        placements lose the worker immediately (the control plane then tops
        them back up with :meth:`set_placement` after re-registering plans).
        """
        with self._lock:
            if worker_id not in self._inflight:
                return
            survivors = [node for node in self.ring.nodes if node != worker_id] if self.ring else []
            self.ring = ConsistentHashRing(survivors, vnodes=self.ring.vnodes) if survivors else None
            self._inflight.pop(worker_id, None)
            for workers in self._placements.values():
                if worker_id in workers:
                    workers.remove(worker_id)
            self._evicted.append(worker_id)

    def workers(self) -> List[str]:
        with self._lock:
            return list(self._inflight)

    # -- dispatch --------------------------------------------------------------

    def acquire(self, plan_id: str) -> str:
        """Pick the least-in-flight placed worker; shed when all are saturated."""
        with self._lock:
            candidates = self._placements.get(plan_id)
            if candidates is None:
                raise KeyError(f"plan {plan_id!r} has no placement (register it first)")
            inflight = self._inflight
            chosen = None
            least = self.max_inflight_per_worker
            for worker in candidates:
                load = inflight[worker]
                if load < least or (load == least and chosen is not None and worker < chosen):
                    chosen, least = worker, load
            if chosen is None:
                if not candidates:
                    raise WorkerFailedError(None, plan_id, "every placed worker was evicted")
                self._shed_total.inc()
                loads = {worker: inflight[worker] for worker in candidates}
                raise BackpressureError(plan_id, loads, self.max_inflight_per_worker)
            inflight[chosen] = least + 1
            self._dispatched_total.inc()
            return chosen

    def release(self, worker_id: str, backlog: Optional[int] = None) -> None:
        """Return a dispatch slot (a no-op for an evicted worker)."""
        with self._lock:
            if self._inflight.get(worker_id, 0) > 0:
                self._inflight[worker_id] -= 1

    def inflight(self, worker_id: str) -> int:
        with self._lock:
            return self._inflight.get(worker_id, 0)

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "workers": list(self._inflight),
                "replicas": self.replicas,
                "max_inflight_per_worker": self.max_inflight_per_worker,
                "plans_placed": len(self._placements),
                "dispatched": self.dispatched,
                "shed": self.shed,
                "inflight": dict(self._inflight),
                "evicted_workers": list(self._evicted),
            }
