"""Event-based, late-binding scheduling of stage executions (Section 4.2.2).

The Scheduler never pushes work to a specific executor.  Instead it maintains
shared :class:`ReadyQueue` instances -- a *low priority* queue for the first
stage of newly submitted requests and a *high priority* queue for stages of
requests that are already in flight -- and executors *pull* the next event
when they become free.  Started pipelines therefore finish (and return their
pooled vectors) before new pipelines are admitted, which is exactly the
paper's rationale for the two queues.

**The ready queues are signature-indexed.**  A :class:`ReadyQueue` preserves
strict FIFO order (pops are byte-identical to a plain deque) but additionally
indexes its queued events by the ``physical.full_signature`` of the stage
each event will run.  Batch formation therefore never scans a queue: the
leader is popped FIFO, and its coalescible peers are popped straight out of
the leader signature's bucket, in FIFO order, at O(1) per event -- so
:meth:`Scheduler.next_batch` costs O(batch size) instead of O(queue depth),
and :meth:`Scheduler.signature_depths` reports the per-signature backlog for
free.

**Cross-plan stage-level batching.**  Because plans compiled against the same
Object Store point at the *same* physical stages, events queued by different
requests -- even requests for different model plans -- frequently wait to run
an identical physical stage.  With ``enable_stage_batching`` on, a free
executor pulls a :class:`StageBatch` instead of a single event: the first
runnable event plus every other queued event whose next stage shares its
``physical.full_signature``, up to ``max_stage_batch_size``.
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

**Locking.**  Each priority class is one
:class:`~repro.profiling.locks.ProfiledLock` guarding one
:class:`ReadyQueue`.  Executors park on a separate sleep condition guarded
by a sleeper count: a producer only touches the condition when someone is
actually asleep, and a consumer re-polls the queues *after* registering as a
sleeper, which (under the GIL's sequential consistency) closes the
missed-wakeup window.

Shutting the scheduler down fails every still-queued request fast (instead of
leaving callers blocked in :meth:`InferenceRequest.wait` until their timeout).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.oven.plan import ModelPlan
from repro.observability import registry, tracer
from repro.observability.tracing import TraceContext
from repro.profiling.locks import ProfiledLock, ProfiledRLock
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
    """A FIFO event queue with a per-signature index of its contents.

    Pops (:meth:`popleft`) come out in exact insertion order, byte-identical
    to the flat deques the seed scheduler used.  On top of that the queue
    maintains, per ``physical.full_signature``:

    * a *coalescible* bucket -- an ordered map of the queued events that stage
      batching may fold into a batch (latency-sensitive events are excluded,
      they only ever leave through :meth:`popleft`); and
    * a total depth counter covering **all** queued events of the signature,
      so :meth:`signature_depths` sums exactly to ``len(queue)``.

    Every operation is O(1) per event touched: :meth:`pop_matching` pops
    members straight off the signature's bucket, so batch formation costs
    O(batch size) regardless of how deep the queue is.
    """

    def __init__(self) -> None:
        self._events: "OrderedDict[int, StageEvent]" = OrderedDict()
        self._coalescible: Dict[str, "OrderedDict[int, StageEvent]"] = {}
        self._depths: Dict[str, int] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self):
        return iter(self._events.values())

    def append(self, event: StageEvent) -> None:
        seq = next(self._counter)
        signature = event.signature
        self._events[seq] = event
        self._depths[signature] = self._depths.get(signature, 0) + 1
        if not event.request.latency_sensitive:
            self._coalescible.setdefault(signature, OrderedDict())[seq] = event

    def popleft(self) -> Optional[StageEvent]:
        """Pop the oldest event (None when empty)."""
        if not self._events:
            return None
        seq, event = self._events.popitem(last=False)
        self._forget(seq, event.signature)
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
            self._forget(seq, signature)
            taken.append(event)
        return taken

    def coalescible_depth(self, signature: str) -> int:
        """How many queued events of ``signature`` a batch could absorb."""
        bucket = self._coalescible.get(signature)
        return len(bucket) if bucket else 0

    def signature_depths(self) -> Dict[str, int]:
        """Total queued events per signature (including latency-sensitive)."""
        return dict(self._depths)

    def drain(self) -> List[StageEvent]:
        """Remove and return every queued event, oldest first (for shutdown)."""
        events = list(self._events.values())
        self._events.clear()
        self._coalescible.clear()
        self._depths.clear()
        return events

    def _forget(self, seq: int, signature: str) -> None:
        remaining = self._depths[signature] - 1
        if remaining:
            self._depths[signature] = remaining
        else:
            del self._depths[signature]
        bucket = self._coalescible.get(signature)
        if bucket is not None:
            bucket.pop(seq, None)
            if not bucket:
                del self._coalescible[signature]


class _PriorityClass:
    """One priority class: a named lock and the ready queue it guards."""

    __slots__ = ("lock", "queue")

    def __init__(self, name: str) -> None:
        self.lock = ProfiledLock(name)
        self.queue = ReadyQueue()


class Scheduler:
    """Signature-indexed ready queues + reservation bookkeeping; executors pull from it.

    Locking: each priority class has its own lock; reservations live behind
    their own lock; sleeping executors park on a dedicated condition that
    producers touch only when the sleeper count says someone is actually
    waiting.  The ``scheduled_events`` /
    ``completed_requests`` counters are registry-backed
    :class:`~repro.observability.metrics.Counter` instruments (the
    attributes remain as read-only properties), still bumped with plain
    ``+=`` inside the instrument -- a preemption between read and store can
    drop an increment, which is acceptable for telemetry and keeps the
    counters off every lock.
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
        self._low = _PriorityClass("scheduler.low")
        self._high = _PriorityClass("scheduler.high")
        #: plan id -> executor id holding the reservation
        self._reservations: Dict[str, int] = {}
        #: executor id -> private queue of events for its reserved plans
        self._reserved_queues: Dict[int, ReadyQueue] = {}
        #: guards the two reservation tables and every private queue;
        #: reentrant because `unreserve` re-routes drained events through
        #: `_enqueue`, whose reserved branch takes it again
        self._reserve_lock = ProfiledRLock("scheduler.reserve")
        #: executors park here; `_sleepers` gates producer-side notifies so
        #: an uncontended submit never touches the condition
        self._sleep_cond = threading.Condition()
        self._sleepers = 0
        self._shutdown = False
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

    def _wake(self) -> None:
        """Wake parked executors iff any are parked.

        A producer that appended before a consumer registered as a sleeper
        may read a zero count here -- but that consumer re-polls the queues
        *after* incrementing ``_sleepers`` and before waiting, so under the
        GIL's total order it either sees the append or is seen by this read.
        Never called with a queue lock held (keeps the lock graph acyclic).
        """
        if self._sleepers:
            with self._sleep_cond:
                self._sleep_cond.notify_all()

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
        with self._reserve_lock:
            self._reservations[plan_id] = executor_id
            self._reserved_queues.setdefault(executor_id, ReadyQueue())

    def unreserve(self, plan_id: str) -> bool:
        """Release a plan's reservation (plan teardown).

        The executor returns to the shared pool once no other plan reserves
        it; events still sitting in its private queue are re-routed through
        the normal enqueue path (they belong to plans that are being torn
        down or that shared the reservation) so nothing is stranded in a
        queue no executor will ever drain again.
        """
        stranded: List[StageEvent] = []
        with self._reserve_lock:
            executor_id = self._reservations.pop(plan_id, None)
            if executor_id is None:
                return False
            if executor_id in self._reservations.values():
                return True  # another plan still holds this executor
            queue = self._reserved_queues.pop(executor_id, None)
            while queue is not None:
                event = queue.popleft()
                if event is None:
                    break
                self._events_total.add(-1)  # _enqueue re-counts it
                if not self._enqueue(event):
                    stranded.append(event)
        self._wake()
        for event in stranded:  # re-route raced shutdown: fail fast
            if not event.request.done:
                event.request.fail(RuntimeError("scheduler is shut down"))
        return True

    def reservation_for(self, plan_id: str) -> Optional[int]:
        return self._reservations.get(plan_id)

    def reserved_executor_ids(self) -> List[int]:
        return list(self._reserved_queues)

    # -- submission --------------------------------------------------------------

    def submit(self, request: InferenceRequest) -> InferenceRequest:
        """Enqueue the first stage of a request on the low-priority queue.

        Submissions against a shut-down scheduler fail the request immediately
        rather than queueing work that will never be served.
        """
        event = StageEvent(request, 0)
        if self._enqueue(event):
            self._wake()
        else:
            request.fail(RuntimeError("scheduler is shut down"))
        return request

    def _enqueue(self, event: StageEvent) -> bool:
        """Route one event to its queue; False iff the scheduler is shut down.

        The shutdown flag is re-checked *inside* the target queue's lock:
        `shutdown` sets the flag and then drains each queue under its lock,
        so an enqueue that wins its lock before the drain is drained, and one
        that loses observes the flag -- either way nothing is stranded.
        """
        if event.request.trace is not None:
            event.enqueued_at = time.perf_counter()
        executor_id = self._reservations.get(event.request.plan_id)  # atomic probe
        if executor_id is not None:
            with self._reserve_lock:
                queue = self._reserved_queues.get(executor_id)
                if (
                    queue is not None
                    and self._reservations.get(event.request.plan_id) == executor_id
                ):
                    if self._shutdown:
                        return False
                    self._events_total.inc()
                    queue.append(event)
                    return True
            # reservation vanished between the probe and the lock: fall
            # through to shared routing
        target = self._low if event.is_first else self._high
        with target.lock:
            if self._shutdown:
                return False
            self._events_total.inc()
            target.queue.append(event)
        return True

    # -- executor protocol ---------------------------------------------------------

    def next_event(self, executor_id: int, timeout: float = 0.05) -> Optional[StageEvent]:
        """Late binding: a free executor pulls the next runnable event.

        Reserved executors only serve their private queue.  Shared executors
        drain the high-priority queues (in-flight pipelines, which hold pooled
        vectors) before admitting new pipelines from the low-priority queues.
        """
        return self._next_ready(executor_id, time.perf_counter() + timeout)

    def next_batch(self, executor_id: int, timeout: float = 0.05) -> Optional[StageBatch]:
        """Pull the next runnable event plus every coalescible peer.

        The first runnable event is chosen exactly as :meth:`next_event` would;
        when stage batching is enabled and the event is not latency-sensitive,
        queued events visible to this executor whose next stage has the same
        physical signature are popped straight off the signature index (up to
        ``max_stage_batch_size``).  Queue order of non-coalesced
        events is preserved, and formation cost is O(batch size).
        """
        event = self._next_ready(executor_id, time.perf_counter() + timeout)
        if event is None:
            return None
        events = [event]
        backlog = 0
        formed_at = time.perf_counter()
        if self.enable_stage_batching and not event.request.latency_sensitive:
            backlog = self._coalesce_into(events, executor_id)
        # internally-locked telemetry; recorded outside every queue lock
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

    def _next_ready(self, executor_id: int, deadline: float) -> Optional[StageEvent]:
        """Poll, then park until an event arrives or the deadline passes."""
        while not self._shutdown:
            event = self._try_pop(executor_id)
            if event is not None:
                return event
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            with self._sleep_cond:
                self._sleepers += 1
                try:
                    # Re-poll after becoming visible as a sleeper: any append
                    # sequenced before our increment is found here, any append
                    # after it sees the non-zero count and notifies.
                    event = self._try_pop(executor_id)
                    if event is not None:
                        return event
                    if self._shutdown:
                        return None
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return None
                    self._sleep_cond.wait(remaining)
                finally:
                    self._sleepers -= 1
        return None

    def _try_pop(self, executor_id: int) -> Optional[StageEvent]:
        """One non-blocking pass over the queues visible to this executor."""
        if executor_id in self._reserved_queues:  # atomic probe
            with self._reserve_lock:
                reserved = self._reserved_queues.get(executor_id)
                if reserved is not None:
                    return reserved.popleft()
            # reservation dropped while we waited: fall through to shared
        for shared in (self._high, self._low):
            # Racy emptiness pre-check: an idle class costs no lock.  A miss
            # (emptied between check and pop) just returns None from popleft.
            if not shared.queue:
                continue
            with shared.lock:
                event = shared.queue.popleft()
            if event is not None:
                return event
        return None

    def _coalesce_into(self, events: List[StageEvent], executor_id: int) -> int:
        """Pop same-signature peers from this executor's queues into ``events``.

        A reserved executor only coalesces from its private queue (isolation);
        shared executors drain the high-priority queue before the low-priority
        one, mirroring the pull order.  Latency-sensitive events are never
        indexed as coalescible, so they are skipped by construction.  Returns
        the coalescible backlog observed behind the leader (for telemetry).
        """
        signature = events[0].signature
        limit = self.max_stage_batch_size
        if executor_id in self._reserved_queues:
            with self._reserve_lock:
                reserved = self._reserved_queues.get(executor_id)
                if reserved is not None:
                    backlog = reserved.coalescible_depth(signature)
                    events.extend(reserved.pop_matching(signature, limit - len(events)))
                    return backlog
        # Depth reads are racy by design (atomic dict lookups; the backlog
        # is only reported); the pops below hold each class's lock.
        backlog = sum(
            shared.queue.coalescible_depth(signature) for shared in (self._high, self._low)
        )
        for shared in (self._high, self._low):
            if len(events) >= limit:
                break
            with shared.lock:
                events.extend(shared.queue.pop_matching(signature, limit - len(events)))
        return backlog

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
        next_event = StageEvent(request, event.stage_index + 1)
        if self._enqueue(next_event):
            self._wake()
        else:
            request.fail(RuntimeError("scheduler shut down before request completed"))

    def on_stage_error(self, event: StageEvent, error: BaseException) -> None:
        event.request.fail(error)

    # -- lifecycle -------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop serving events and fail every still-queued request fast.

        Without this, a request whose events were queued but never pulled would
        block its caller in :meth:`InferenceRequest.wait` until the timeout.
        Sets the flag first, then drains each queue under its own lock; an
        enqueue racing this either lands before the drain (and is drained) or
        observes the flag inside the lock and fails its request itself.
        """
        self._shutdown = True
        abandoned: List[StageEvent] = []
        for shared in (self._low, self._high):
            with shared.lock:
                abandoned.extend(shared.queue.drain())
        with self._reserve_lock:
            for queue in self._reserved_queues.values():
                abandoned.extend(queue.drain())
        self._wake()
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
        depths = {"low": len(self._low.queue), "high": len(self._high.queue)}
        with self._reserve_lock:
            for executor_id, queue in self._reserved_queues.items():
                depths[f"reserved[{executor_id}]"] = len(queue)
        return depths

    def signature_depths(self) -> Dict[str, int]:
        """Queued events per physical-stage signature, across every queue.

        The per-signature index makes this a dictionary merge -- no queue is
        scanned -- so telemetry can sample the backlog shape cheaply even
        under deep queues.
        """
        snapshots = []
        for shared in (self._low, self._high):
            with shared.lock:
                snapshots.append(shared.queue.signature_depths())
        with self._reserve_lock:
            snapshots.extend(queue.signature_depths() for queue in self._reserved_queues.values())
        totals: Dict[str, int] = {}
        for depths in snapshots:
            for signature, depth in depths.items():
                totals[signature] = totals.get(signature, 0) + depth
        return totals
