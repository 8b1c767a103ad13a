"""PRETZEL's client-facing FrontEnd.

The FrontEnd accepts prediction requests over a (simulated) HTTP hop, applies
the same *external* black-box optimizations Clipper offers -- prediction
result caching with LRU eviction and delayed batching -- and forwards work to
the Runtime.  These techniques are orthogonal to the white-box optimizations
and are measured separately in the end-to-end experiments (Figures 11 and 14).

**Delayed batching feeds the batch engine end to end.**  ``predict_delayed``
buffers records per plan; the buffer is flushed either when it fills
(``max_batch_size``) or when a deadline timer armed at the first buffered
record expires (``max_batch_delay_seconds``).  A flush submits every buffered
record through :meth:`PretzelRuntime.submit`, so the records become scheduler
events that the batch engine's stage-level coalescing batches -- across this
plan's records *and* anything else queued for the same physical stages.  The
reported ``prediction_seconds`` is the *measured* wall time from the moment
the buffer opened until the last output arrived, so a batch that fills early
is never charged the full configured delay.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.runtime import PretzelRuntime
from repro.net import NetworkModel

__all__ = ["FrontEndConfig", "PretzelFrontEnd", "FrontEndResponse", "FlushError"]

#: upper bound on how long a flush waits for its submitted requests
_FLUSH_WAIT_SECONDS = 60.0

#: how many deadline-flush responses/errors are retained for pickup
_AUTO_FLUSH_HISTORY = 256


@dataclass
class FrontEndConfig:
    """Configuration of the ASP.Net-style front-end."""

    client_network: NetworkModel = field(default_factory=lambda: NetworkModel(round_trip_seconds=0.004))
    enable_cache: bool = False
    cache_size: int = 2048
    max_batch_size: int = 16
    max_batch_delay_seconds: float = 0.001
    frontend_overhead_bytes: int = 1024 * 1024


@dataclass
class FrontEndResponse:
    """Outputs plus the latency breakdown observed by the client."""

    plan_id: str
    outputs: List[Any]
    prediction_seconds: float
    network_seconds: float
    cache_hit: bool = False
    #: True when ``predict_delayed`` merely buffered the records -- outputs
    #: will arrive with a later flush (manual, fill-triggered, or deadline).
    buffered: bool = False

    @property
    def end_to_end_seconds(self) -> float:
        return self.prediction_seconds + self.network_seconds


class FlushError(RuntimeError):
    """A delayed-batching flush could not complete its whole buffer.

    Raised so clients never silently lose buffered records: ``outputs``
    carries what did complete (in submission order), ``submitted_records``
    how many records reached the runtime, and ``dropped_records`` how many
    produced no output (never submitted, or submitted but failed/timed out).
    The underlying failure is chained as ``__cause__``.
    """

    def __init__(
        self,
        plan_id: str,
        submitted_records: int,
        dropped_records: int,
        outputs: List[Any],
    ):
        self.plan_id = plan_id
        self.submitted_records = submitted_records
        self.dropped_records = dropped_records
        self.outputs = outputs
        super().__init__(
            f"flush of plan {plan_id!r} dropped {dropped_records} of "
            f"{len(outputs) + dropped_records} buffered records "
            f"({submitted_records} submitted)"
        )


@dataclass
class _DelayedBuffer:
    """Per-plan buffer of records awaiting a delayed-batching flush."""

    opened_at: float
    records: List[Any] = field(default_factory=list)
    #: absolute perf_counter deadline for the auto-flush (None = manual only)
    deadline: Optional[float] = None


class PretzelFrontEnd:
    """Submit prediction requests to a PRETZEL runtime on behalf of clients."""

    def __init__(self, runtime: PretzelRuntime, config: Optional[FrontEndConfig] = None):
        self.runtime = runtime
        self.config = config or FrontEndConfig()
        self._cache: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self._pending: Dict[str, _DelayedBuffer] = {}
        self._pending_lock = threading.Lock()
        #: wakes the (single, lazily started) deadline-monitor thread whenever
        #: a buffer opens or is flushed, so it re-reads the earliest deadline
        #: (and exits once none is left)
        self._deadline_changed = threading.Condition(self._pending_lock)
        self._monitor: Optional[threading.Thread] = None
        #: responses produced by deadline-timer flushes (clients that buffered
        #: pick their outputs up here; tests assert on it).  Bounded: only the
        #: most recent ``_AUTO_FLUSH_HISTORY`` survive, so a long-running
        #: front-end does not accumulate every batch's outputs forever.
        self.auto_flushes: "Deque[FrontEndResponse]" = deque(maxlen=_AUTO_FLUSH_HISTORY)
        #: errors raised inside deadline-timer flushes (never propagated into
        #: the timer thread's traceback machinery); bounded like auto_flushes
        self.flush_errors: "Deque[BaseException]" = deque(maxlen=_AUTO_FLUSH_HISTORY)
        #: running total of buffered records that never produced an output
        #: (see :class:`FlushError`) -- the client-visible loss counter
        self.dropped_records = 0

    # -- caching helpers ---------------------------------------------------------

    def _cache_lookup(self, key: Hashable) -> Optional[Any]:
        if key in self._cache:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return self._cache[key]
        self.cache_misses += 1
        return None

    def _cache_store(self, key: Hashable, value: Any) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.cache_size:
            self._cache.popitem(last=False)

    # -- serving --------------------------------------------------------------------

    def predict(self, plan_id: str, records: Sequence[Any]) -> FrontEndResponse:
        """Serve one client request end-to-end.

        An empty ``records`` sequence is answered immediately with an empty
        response (it used to fall into the single-record path and crash on
        ``records[0]``).
        """
        records = list(records)
        if not records:
            return FrontEndResponse(
                plan_id=plan_id, outputs=[], prediction_seconds=0.0, network_seconds=0.0
            )
        cache_key: Optional[Hashable] = None
        if self.config.enable_cache and len(records) == 1:
            cache_key = (plan_id, repr(records[0]))
            cached = self._cache_lookup(cache_key)
            if cached is not None:
                network, _rq, _rs = self.config.client_network.round_trip(
                    {"plan": plan_id, "records": records}, {"outputs": [cached]}
                )
                return FrontEndResponse(
                    plan_id=plan_id,
                    outputs=[cached],
                    prediction_seconds=0.0,
                    network_seconds=network,
                    cache_hit=True,
                )
        start = time.perf_counter()
        if len(records) > 1:
            outputs = self.runtime.predict_batch(plan_id, records)
        else:
            outputs = [self.runtime.predict(plan_id, records[0])]
        prediction_seconds = time.perf_counter() - start
        if cache_key is not None:
            self._cache_store(cache_key, outputs[0])
        network, _rq, _rs = self.config.client_network.round_trip(
            {"plan": plan_id, "records": records}, {"outputs": outputs}
        )
        return FrontEndResponse(
            plan_id=plan_id,
            outputs=outputs,
            prediction_seconds=prediction_seconds,
            network_seconds=network,
        )

    def predict_delayed(self, plan_id: str, records: Sequence[Any]) -> FrontEndResponse:
        """Delayed batching: buffer records, flush on fill or deadline expiry.

        Buffering returns a ``buffered=True`` response with no outputs.  The
        first record buffered for a plan arms a flush deadline
        (``max_batch_delay_seconds``, enforced by one shared monitor thread --
        no thread is spawned per batch window); reaching ``max_batch_size``
        flushes immediately (and returns the flush response), so a batch that
        fills early never waits out the deadline.  An empty ``records``
        sequence buffers nothing and is answered with ``buffered=False``.
        The delayed path bypasses the prediction cache: its records go
        straight to the batch engine.
        """
        records = list(records)
        if not records:
            return FrontEndResponse(
                plan_id=plan_id, outputs=[], prediction_seconds=0.0, network_seconds=0.0
            )
        with self._pending_lock:
            buffer = self._pending.get(plan_id)
            if buffer is None:
                opened_at = time.perf_counter()
                buffer = _DelayedBuffer(opened_at=opened_at)
                if self.config.max_batch_delay_seconds > 0:
                    buffer.deadline = opened_at + self.config.max_batch_delay_seconds
                self._pending[plan_id] = buffer
            buffer.records.extend(records)
            full = len(buffer.records) >= self.config.max_batch_size
            if full:
                # Pop while still holding the lock so the deadline monitor can
                # never steal the buffer between the fill check and the flush
                # (the filling caller must receive the outputs itself).
                del self._pending[plan_id]
            elif buffer.deadline is not None:
                self._ensure_monitor()
            self._deadline_changed.notify_all()
        if full:
            return self._flush_buffer(plan_id, buffer)
        return FrontEndResponse(
            plan_id=plan_id, outputs=[], prediction_seconds=0.0,
            network_seconds=0.0, buffered=True,
        )

    def flush(self, plan_id: str) -> FrontEndResponse:
        """Flush the plan's delayed-batching buffer through the batch engine."""
        with self._pending_lock:
            buffer = self._pending.pop(plan_id, None)
            # The monitor may be sleeping toward this buffer's deadline.
            self._deadline_changed.notify_all()
        if buffer is None or not buffer.records:
            return FrontEndResponse(
                plan_id=plan_id, outputs=[], prediction_seconds=0.0, network_seconds=0.0
            )
        return self._flush_buffer(plan_id, buffer)

    def _flush_buffer(self, plan_id: str, buffer: _DelayedBuffer) -> FrontEndResponse:
        # Submit record by record: stage-level coalescing inside the scheduler
        # re-forms the batch (possibly merged with other plans' events sharing
        # the same physical stages), which is the whole point of routing the
        # delayed path through the batch engine.
        #
        # The flush is atomic from the client's point of view: if a submit
        # fails mid-loop, every already-submitted request is still *waited*
        # (their events are in the scheduler and their outputs are collected,
        # not abandoned), and the failure surfaces as a FlushError that
        # carries the partial outputs and the dropped-record count instead of
        # silently vanishing records.
        requests = []
        failure: Optional[BaseException] = None
        for record in buffer.records:
            try:
                requests.append(self.runtime.submit(plan_id, record))
            except BaseException as error:  # noqa: BLE001 - reported via FlushError
                failure = error
                break
        outputs: List[Any] = []
        for request in requests:
            try:
                outputs.append(request.wait(_FLUSH_WAIT_SECONDS))
            except BaseException as error:  # noqa: BLE001 - drain every request
                if failure is None:
                    failure = error
        dropped = len(buffer.records) - len(outputs)
        if failure is not None or dropped:
            self.dropped_records += dropped
            raise FlushError(
                plan_id=plan_id,
                submitted_records=len(requests),
                dropped_records=dropped,
                outputs=outputs,
            ) from failure
        # Measured wait: buffer-open to last output, not a flat surcharge.
        prediction_seconds = time.perf_counter() - buffer.opened_at
        network, _rq, _rs = self.config.client_network.round_trip(
            {"plan": plan_id, "records": buffer.records}, {"outputs": outputs}
        )
        return FrontEndResponse(
            plan_id=plan_id,
            outputs=outputs,
            prediction_seconds=prediction_seconds,
            network_seconds=network,
        )

    def _ensure_monitor(self) -> None:
        """Start the single deadline-monitor thread (caller holds the lock)."""
        if self._monitor is None or not self._monitor.is_alive():
            self._monitor = threading.Thread(
                target=self._deadline_loop, name="pretzel-frontend-flush", daemon=True
            )
            self._monitor.start()

    def _deadline_loop(self) -> None:
        """Flush buffers whose deadline passed; sleep until the next one.

        The thread exits once no buffer holds a deadline, so an idle front
        end keeps no thread alive; the next deadline starts a fresh one.
        """
        while True:
            expired: List[Tuple[str, _DelayedBuffer]] = []
            with self._deadline_changed:
                now = time.perf_counter()
                next_deadline: Optional[float] = None
                for plan_id, buffer in list(self._pending.items()):
                    if buffer.deadline is None:
                        continue
                    if buffer.deadline <= now:
                        expired.append((plan_id, buffer))
                        del self._pending[plan_id]
                    elif next_deadline is None or buffer.deadline < next_deadline:
                        next_deadline = buffer.deadline
                if not expired:
                    if next_deadline is None:
                        self._monitor = None
                        return
                    self._deadline_changed.wait(timeout=next_deadline - now)
                    continue
            for plan_id, buffer in expired:
                try:
                    response = self._flush_buffer(plan_id, buffer)
                except Exception as error:  # noqa: BLE001 - the monitor must not die loudly
                    self.flush_errors.append(error)
                    continue
                self.auto_flushes.append(response)

    def pending_counts(self) -> Dict[str, int]:
        """Buffered (not yet flushed) record counts per plan."""
        with self._pending_lock:
            return {plan_id: len(buffer.records) for plan_id, buffer in self._pending.items()}

    # -- accounting ---------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.config.frontend_overhead_bytes + self.runtime.memory_bytes()

    def cache_stats(self) -> Dict[str, int]:
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
        }
