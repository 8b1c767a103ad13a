"""Event-based, late-binding scheduling of stage executions (Section 4.2.2).

The Scheduler never pushes work to a specific executor.  Instead it maintains
shared :class:`ReadyQueue` instances -- a *low priority* queue for the first
stage of newly submitted requests and a *high priority* queue for stages of
requests that are already in flight -- and executors *pull* the next event
when they become free.  Started pipelines therefore finish before new
pipelines are admitted, which is exactly the paper's rationale for the two
queues.

**The ready queues are signature-indexed.**  A :class:`ReadyQueue` preserves
strict FIFO order (pops are byte-identical to a plain deque) but additionally
indexes its coalescible events by the ``physical.full_signature`` of the
stage each event will run.  Batch formation therefore never scans a queue:
the leader is popped FIFO, and its coalescible peers are popped straight out
of the leader signature's bucket, in FIFO order, at O(1) per event -- so
:meth:`Scheduler.next_batch` costs O(batch size) instead of O(queue depth).

**Cross-plan stage-level batching.**  Because plans compiled against the same
Object Store point at the *same* physical stages, events queued by different
requests -- even requests for different model plans -- frequently wait to run
an identical physical stage.  A free executor pulls a :class:`StageBatch`:
the first runnable event plus, with ``enable_stage_batching`` on, every
other queued event whose next stage shares its ``physical.full_signature``,
up to ``max_stage_batch_size``.  With batching off every batch is one event.
Latency-sensitive requests always bypass coalescing (they run alone,
preserving the request-response latency profile), and reserved executors only
coalesce within their private queue, so reservation isolation is preserved.
Observed batch sizes and the backlog behind each pull are recorded in
:class:`repro.telemetry.batching.StageBatchTelemetry`.

Reservation-based scheduling (Section 4.2.2, "Reservation-based Scheduling")
gives a plan a dedicated executor and a private queue, emulating
container-style isolation while still sharing parameters and physical stages.

**Two drivers.**  The executor threads of
:class:`repro.core.executors.ExecutorPool` pull from a Scheduler at run
time.  The virtual-time simulator behind Figures 12-14
(:func:`repro.simulation.queueing.simulate_stage_scheduler`) is the second
driver: it submits, pulls with ``next_batch(core, timeout=0.0)`` and reports
completions on a virtual clock, so the figures' PRETZEL series run this very
policy.

**Locking.**  One condition variable, over a
:class:`~repro.profiling.locks.ProfiledLock` named ``scheduler.queues``,
guards every queue, both reservation tables and the shutdown flag.  Idle
executors wait on that same condition, and every producer wakes all of them.

Shutting the scheduler down fails every still-queued request fast (instead of
leaving callers blocked in :meth:`InferenceRequest.wait` until their timeout).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.oven.plan import ModelPlan
from repro.observability import registry, tracer
from repro.observability.tracing import TraceContext
from repro.profiling.locks import ProfiledLock
from repro.telemetry.batching import StageBatchTelemetry

__all__ = ["InferenceRequest", "StageEvent", "StageBatch", "ReadyQueue", "Scheduler"]


class InferenceRequest:
    """One prediction request travelling through the batch engine."""

    _counter = itertools.count()

    def __init__(
        self,
        plan_id: str,
        plan: ModelPlan,
        record: Any,
        latency_sensitive: bool = False,
        trace: Optional[TraceContext] = None,
    ):
        self.request_id = next(InferenceRequest._counter)
        self.plan_id = plan_id
        self.plan = plan
        self.record = record
        self.latency_sensitive = latency_sensitive
        #: sampled trace context (None for the untraced fast path); the
        #: executors and the scheduler record spans against it
        self.trace = trace
        #: per-request context of exported stage values
        self.values: Dict[Tuple[str, str], Any] = {}
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._done = threading.Event()

    # -- completion -----------------------------------------------------------

    def complete(self, result: Any) -> None:
        self.result = result
        self.completed_at = time.perf_counter()
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.completed_at = time.perf_counter()
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.request_id} did not complete in time")
        if self.error is not None:
            raise self.error
        return self.result

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:
        return f"InferenceRequest(id={self.request_id}, plan={self.plan_id!r})"


@dataclass
class StageEvent:
    """A schedulable unit: one stage of one in-flight request."""

    request: InferenceRequest
    stage_index: int
    #: set by ``Scheduler._enqueue`` for traced requests only; the executor
    #: turns it into a ``queue.wait`` span when it pulls the event
    enqueued_at: Optional[float] = None

    @property
    def is_first(self) -> bool:
        return self.stage_index == 0

    @property
    def is_last(self) -> bool:
        return self.stage_index == len(self.request.plan.stages) - 1

    @property
    def signature(self) -> str:
        """Signature of the physical stage this event will execute."""
        return self.request.plan.stage_signature(self.stage_index)


@dataclass
class StageBatch:
    """A coalesced group of stage events sharing one physical stage.

    Every member's next stage has the same ``physical.full_signature``, so the
    whole batch can be served by a single (possibly vectorized)
    :meth:`~repro.core.oven.physical.PhysicalStage.execute_batch` call
    (:func:`~repro.core.engines.execute_plan_stage_batch`); a batch of one, or
    any batch while materialization is on, runs member by member instead.
    """

    events: List[StageEvent]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("a StageBatch needs at least one event")

    @property
    def signature(self) -> str:
        return self.events[0].signature

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class ReadyQueue:
    """A FIFO event queue with a per-signature index of its coalescible events.

    Pops (:meth:`popleft`) come out in exact insertion order, byte-identical
    to the flat deques the seed scheduler used.  On top of that the queue
    keeps, per ``physical.full_signature``, a *coalescible* bucket -- an
    ordered map of the queued events that stage batching may fold into a
    batch (latency-sensitive events are excluded, they only ever leave
    through :meth:`popleft`).

    Every pop is O(1) per event touched: :meth:`pop_matching` pops members
    straight off the signature's bucket, so batch formation costs O(batch
    size) regardless of how deep the queue is.
    """

    def __init__(self) -> None:
        self._events: "OrderedDict[int, StageEvent]" = OrderedDict()
        self._coalescible: Dict[str, "OrderedDict[int, StageEvent]"] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self):
        return iter(self._events.values())

    def append(self, event: StageEvent) -> None:
        seq = next(self._counter)
        self._events[seq] = event
        if not event.request.latency_sensitive:
            self._coalescible.setdefault(event.signature, OrderedDict())[seq] = event

    def popleft(self) -> Optional[StageEvent]:
        """Pop the oldest event (None when empty)."""
        if not self._events:
            return None
        seq, event = self._events.popitem(last=False)
        signature = event.signature
        bucket = self._coalescible.get(signature)
        if bucket is not None:
            bucket.pop(seq, None)
            if not bucket:
                del self._coalescible[signature]
        return event

    def pop_matching(self, signature: str, limit: int) -> List[StageEvent]:
        """Pop up to ``limit`` coalescible events of ``signature``, oldest first.

        Latency-sensitive events are never returned; they stay queued for
        :meth:`popleft`.  Cost is O(number of events returned).
        """
        taken: List[StageEvent] = []
        bucket = self._coalescible.get(signature)
        if bucket is None or limit <= 0:
            return taken
        while bucket and len(taken) < limit:
            seq, event = bucket.popitem(last=False)
            del self._events[seq]
            taken.append(event)
        if not bucket:
            del self._coalescible[signature]
        return taken

    def coalescible_depth(self, signature: str) -> int:
        """How many queued events of ``signature`` a batch could absorb."""
        bucket = self._coalescible.get(signature)
        return len(bucket) if bucket else 0

    def signature_depths(self) -> Dict[str, int]:
        """Total queued events per signature (including latency-sensitive).

        Counted on demand: only telemetry reads it, so no pop pays for it.
        """
        return dict(Counter(event.signature for event in self._events.values()))

    def drain(self) -> List[StageEvent]:
        """Remove and return every queued event, oldest first (for shutdown)."""
        events = list(self._events.values())
        self._events.clear()
        self._coalescible.clear()
        return events


class Scheduler:
    """Signature-indexed ready queues + reservation bookkeeping; executors pull from it.

    Locking: one condition guards every queue, both reservation tables and
    the shutdown flag, and idle executors wait on it.  The
    ``scheduled_events`` / ``completed_requests`` counters are
    registry-backed :class:`~repro.observability.metrics.Counter`
    instruments (the attributes remain as read-only properties), still bumped
    with plain ``+=`` inside the instrument -- a preemption between read and
    store can drop an increment, which is acceptable for telemetry.
    """

    def __init__(
        self,
        enable_stage_batching: bool = False,
        max_stage_batch_size: int = 16,
    ) -> None:
        if max_stage_batch_size < 1:
            raise ValueError("max_stage_batch_size must be >= 1")
        self.enable_stage_batching = enable_stage_batching
        self.max_stage_batch_size = max_stage_batch_size
        self.batching = StageBatchTelemetry()
        self._low = ReadyQueue()
        self._high = ReadyQueue()
        #: plan id -> executor id holding the reservation
        self._reservations: Dict[str, int] = {}
        #: executor id -> private queue of events for its reserved plans
        self._reserved_queues: Dict[int, ReadyQueue] = {}
        self._shutdown = False
        #: guards everything above; producers notify_all because reserved
        #: and shared executors wait on it alike
        self._cond = threading.Condition(ProfiledLock("scheduler.queues"))
        #: per-instance instruments on the unified metrics plane; the
        #: ``scheduled_events`` / ``completed_requests`` properties keep the
        #: historical attribute API reading exactly this scheduler's counts
        self._events_total = registry().counter("pretzel_scheduler_events_total")
        self._completed_total = registry().counter("pretzel_scheduler_completed_total")

    @property
    def scheduled_events(self) -> int:
        return self._events_total.value

    @property
    def completed_requests(self) -> int:
        return self._completed_total.value

    # -- per-signature state ------------------------------------------------------

    def forget_signature(self, signature: str) -> None:
        """Drop a signature's batching telemetry once its last plan unregisters.

        Plan churn then cannot grow the counters without bound, and a later
        plan re-creating the same physical stage starts from zero.
        """
        self.batching.forget(signature)

    # -- reservations -----------------------------------------------------------

    def reserve(self, plan_id: str, executor_id: int) -> None:
        """Dedicate ``executor_id`` to ``plan_id`` (container-like isolation)."""
        with self._cond:
            self._reservations[plan_id] = executor_id
            self._reserved_queues.setdefault(executor_id, ReadyQueue())

    def unreserve(self, plan_id: str) -> bool:
        """Release a plan's reservation (plan teardown).

        The executor returns to the shared pool once no other plan reserves
        it; events still sitting in its private queue are re-routed to the
        shared queues (they belong to plans that are being torn down or that
        shared the reservation) so nothing is stranded in a queue no executor
        will ever drain again.  After shutdown every queue is already empty.
        """
        with self._cond:
            executor_id = self._reservations.pop(plan_id, None)
            if executor_id is None:
                return False
            if executor_id in self._reservations.values():
                return True  # another plan still holds this executor
            queue = self._reserved_queues.pop(executor_id, None)
            if queue:
                for event in queue.drain():
                    self._route(event)
                self._cond.notify_all()
        return True

    def reservation_for(self, plan_id: str) -> Optional[int]:
        return self._reservations.get(plan_id)

    def reserved_executor_ids(self) -> List[int]:
        with self._cond:
            return list(self._reserved_queues)

    # -- submission --------------------------------------------------------------

    def submit(self, request: InferenceRequest) -> InferenceRequest:
        """Enqueue the first stage of a request on the low-priority queue.

        Submissions against a shut-down scheduler fail the request immediately
        rather than queueing work that will never be served.
        """
        if not self._push(StageEvent(request, 0)):
            request.fail(RuntimeError("scheduler is shut down"))
        return request

    def _push(self, event: StageEvent) -> bool:
        """Queue one event and wake every parked executor; False iff shut down."""
        with self._cond:
            if self._shutdown:
                return False
            self._events_total.inc()
            self._route(event)
            self._cond.notify_all()
        return True

    def _route(self, event: StageEvent) -> None:
        """Append ``event`` to its plan's reserved queue or a shared one (lock held)."""
        if event.request.trace is not None:
            event.enqueued_at = time.perf_counter()
        executor_id = self._reservations.get(event.request.plan_id)
        if executor_id is not None:
            self._reserved_queues[executor_id].append(event)
        elif event.is_first:
            self._low.append(event)
        else:
            self._high.append(event)

    # -- executor protocol ---------------------------------------------------------

    def _visible(self, executor_id: int) -> Tuple[ReadyQueue, ...]:
        """The queues ``executor_id`` pulls from, in pull order (lock held).

        A reserved executor serves only its private queue.  Shared executors
        drain the high-priority queue (in-flight pipelines) before admitting
        new pipelines from the low-priority one.
        """
        reserved = self._reserved_queues.get(executor_id)
        return (reserved,) if reserved is not None else (self._high, self._low)

    def next_batch(self, executor_id: int, timeout: float = 0.05) -> Optional[StageBatch]:
        """Late binding: a free executor pulls the next runnable event and its peers.

        The leader is the oldest event of the first non-empty queue visible to
        this executor; the call waits up to ``timeout`` seconds for one.  When
        stage batching is enabled and the leader is not latency-sensitive,
        queued events in the same queues whose next stage has the same
        physical signature are popped straight off the signature index (up to
        ``max_stage_batch_size``).  Queue order of non-coalesced events is
        preserved, and formation cost is O(batch size).
        """
        deadline = time.perf_counter() + timeout
        with self._cond:
            while True:
                if self._shutdown:
                    return None
                queues = self._visible(executor_id)
                event = next((queue.popleft() for queue in queues if queue), None)
                if event is not None:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            events = [event]
            backlog = 0
            formed_at = time.perf_counter()
            if self.enable_stage_batching and not event.request.latency_sensitive:
                signature = event.signature
                limit = self.max_stage_batch_size
                backlog = sum(queue.coalescible_depth(signature) for queue in queues)
                for queue in queues:
                    if len(events) >= limit:
                        break
                    events.extend(queue.pop_matching(signature, limit - len(events)))
        # internally-locked telemetry; recorded outside the condition
        self.batching.record(event.signature, len(events), backlog=backlog)
        if len(events) > 1:
            traced = [member.request.trace for member in events if member.request.trace]
            if traced:
                # one batch span belongs to every member trace: record it on
                # the first traced member, link the rest by trace id
                tracer().record(
                    traced[0].trace_id,
                    "batch.form",
                    time.perf_counter() - formed_at,
                    parent_span_id=traced[0].parent_span_id,
                    attributes={
                        "signature": event.signature,
                        "size": len(events),
                        "backlog": backlog,
                        "links": [trace.trace_id for trace in traced],
                    },
                )
        return StageBatch(events)

    def on_stage_complete(self, event: StageEvent, output: Any) -> None:
        """Advance the request: schedule the next stage or complete it.

        Requeueing into a shut-down scheduler (an executor finishing its
        current stage while the pool is stopping) fails the request fast
        instead of stranding it in a queue nobody will ever drain.
        """
        request = event.request
        if event.is_last:
            request.complete(output)
            self._completed_total.inc()
            trace = request.trace
            if trace is not None and trace.owns_root:
                # the hop that minted the context roots the trace; span id is
                # the pre-minted root id every child already parents under
                duration = (request.completed_at or 0.0) - request.submitted_at
                tracer().record(
                    trace.trace_id,
                    "request",
                    duration,
                    span_id=trace.parent_span_id,
                    attributes={"plan_id": request.plan_id, "engine": "batch"},
                )
            return
        if not self._push(StageEvent(request, event.stage_index + 1)):
            request.fail(RuntimeError("scheduler shut down before request completed"))

    def on_stage_error(self, event: StageEvent, error: BaseException) -> None:
        event.request.fail(error)

    # -- lifecycle -------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop serving events and fail every still-queued request fast.

        Without this, a request whose events were queued but never pulled would
        block its caller in :meth:`InferenceRequest.wait` until the timeout.
        The flag and the drain share one critical section, so every later
        push observes the flag and fails its request itself.
        """
        with self._cond:
            self._shutdown = True
            abandoned = self._low.drain() + self._high.drain()
            for queue in self._reserved_queues.values():
                abandoned.extend(queue.drain())
            self._cond.notify_all()
        for event in abandoned:
            if not event.request.done:
                event.request.fail(
                    RuntimeError(
                        f"scheduler shut down with request {event.request.request_id} pending"
                    )
                )

    @property
    def is_shut_down(self) -> bool:
        return self._shutdown

    def queue_depths(self) -> Dict[str, int]:
        with self._cond:
            depths = {"low": len(self._low), "high": len(self._high)}
            for executor_id, queue in self._reserved_queues.items():
                depths[f"reserved[{executor_id}]"] = len(queue)
        return depths

    def signature_depths(self) -> Dict[str, int]:
        """Queued events per physical-stage signature, across every queue."""
        with self._cond:
            queues = [self._low, self._high, *self._reserved_queues.values()]
            return dict(Counter(event.signature for queue in queues for event in queue))
