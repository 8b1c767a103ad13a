"""The control plane: heartbeats, fail-over and lifecycle accounting.

One :class:`ControlPlane` per :class:`~repro.serving.cluster.PretzelCluster`.
It owns the pieces that make the cluster *dynamic*:

* a :class:`~repro.serving.control.failure.FailureDetector` fed by every
  reply (piggybacked heartbeats) plus an idle-ping thread that only pings
  workers silent past ``heartbeat_interval_seconds``;
* the fail-over procedure: on death, evict the worker from the router's
  ring and placements, re-register its plans onto survivors through the
  normal registration path (arena adoption included), and let in-flight
  requests fail with the retryable
  :class:`~repro.serving.control.failure.WorkerFailedError`;
* the fail-over/unregister counters surfaced as
  ``PretzelCluster.stats()["control_plane"]``.

The heartbeat thread never blocks dispatch: pings use a non-blocking
try-lock on the worker handle, so a worker with a request in flight is
skipped -- that request itself will adjudicate liveness (reply, connection
error, or timeout) faster than any ping could.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Set

from repro.serving.control.failure import FailureDetector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.cluster import PretzelCluster

__all__ = ["ControlPlane"]


class ControlPlane:
    """Failure detection, fail-over and lifecycle accounting for one cluster."""

    def __init__(self, cluster: "PretzelCluster"):
        self.cluster = cluster
        config = cluster.config
        self.heartbeat_interval_seconds = config.heartbeat_interval_seconds
        self.detector = FailureDetector(
            cluster.worker_ids(),
            heartbeat_interval_seconds=config.heartbeat_interval_seconds,
            worker_timeout_seconds=config.worker_timeout_seconds,
        )
        self._dead: Set[str] = set()
        self._dead_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: cap a ping round trip well below the death deadline so a wedged
        #: worker cannot stall the heartbeat thread for a full worker timeout
        self._ping_timeout = min(
            config.worker_timeout_seconds, max(2 * config.heartbeat_interval_seconds, 0.1)
        )
        self.failovers = 0
        self.plans_failed_over = 0
        self.unregistered_plans = 0
        self.heartbeats_sent = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="pretzel-control-plane", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- evidence --------------------------------------------------------------

    def worker_failed(self, worker_id: str, reason: str = "") -> None:
        """Commit a death verdict and run fail-over exactly once per worker."""
        if worker_id not in self.cluster._workers:
            return
        with self._dead_lock:
            if worker_id in self._dead:
                return
            self._dead.add(worker_id)
        self.detector.mark_dead(worker_id, reason)
        self.failovers += 1
        # Eviction is synchronous; the re-register round trips run on the
        # cluster's fail-over thread, which increments plans_failed_over as
        # each plan lands on a new worker.
        self.cluster._on_worker_dead(worker_id)

    def is_dead(self, worker_id: str) -> bool:
        with self._dead_lock:
            return worker_id in self._dead

    # -- heartbeat loop ----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        period = max(self.heartbeat_interval_seconds / 2.0, 0.01)
        while not self._stop.wait(period):
            try:
                self._heartbeat_round()
            except Exception:  # pragma: no cover - defensive: keep beating
                pass

    def _heartbeat_round(self) -> None:
        from repro.serving.cluster import WorkerFailure, WorkerTimeout

        for worker_id, handle in list(self.cluster._workers.items()):
            if self._stop.is_set():
                return
            if self.is_dead(worker_id) or not self.detector.due_for_ping(worker_id):
                continue
            try:
                reply = handle.request(
                    self.cluster._message("ping"), self._ping_timeout, blocking=False
                )
            except WorkerFailure as error:
                if error.connection_lost or not handle.process_alive():
                    self.worker_failed(worker_id, f"heartbeat: {error}")
                continue
            except WorkerTimeout as error:
                # Silent but maybe just wedged: dead only once the process is
                # gone or the silence outlives the death deadline.
                if not handle.process_alive() or self.detector.deadline_exceeded(worker_id):
                    self.worker_failed(worker_id, f"heartbeat: {error}")
                continue
            if reply is None:
                continue  # a request is in flight; it will adjudicate liveness
            self.heartbeats_sent += 1
            self.detector.record_reply(worker_id)

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        ages = self.detector.heartbeat_ages()
        return {
            "heartbeat_interval_seconds": self.heartbeat_interval_seconds,
            "failovers": self.failovers,
            "plans_failed_over": self.plans_failed_over,
            "unregistered_plans": self.unregistered_plans,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeat_ages_seconds": {w: round(age, 3) for w, age in ages.items()},
            "worker_states": self.detector.states(),
            "dead_workers": sorted(self.detector.dead_workers()),
            "lifecycle": self.cluster.lifecycle.stats(),
        }
