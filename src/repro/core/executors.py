"""Executors: long-running workers that execute physical stages.

Each executor pulls stage events from the Scheduler when free.  The pool of
executors is created once at runtime initialization so no thread is ever
spawned on the prediction path.  Executors serve ``submit`` traffic;
``PretzelRuntime.predict_batch`` runs its records on the caller's thread and
never starts them.

When the scheduler has stage-level batching enabled, a free executor pulls a
:class:`~repro.core.scheduler.StageBatch` -- queued events whose next stage
shares one physical-stage signature, possibly from different requests and
different model plans, taken straight from the scheduler's signature index
(up to ``max_stage_batch_size``) -- and serves
the whole batch through a single vectorized
:func:`~repro.core.engines.execute_plan_stage_batch` call.  If the batched
path raises, the executor falls back to per-event scalar execution so errors
are attributed to the request that caused them and healthy requests in the
same batch still complete.  A batch of one, and any batch while sub-plan
materialization is on (its cache is keyed per record), runs event by event
through that scalar path.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro.core.engines import (
    execute_plan_stage,
    execute_plan_stage_batch,
    record_stage_span,
)
from repro.core.materialization import SubPlanMaterializer
from repro.core.scheduler import Scheduler, StageBatch, StageEvent
from repro.observability import tracer

__all__ = ["Executor", "ExecutorPool"]


def _record_queue_wait(event: StageEvent) -> None:
    """Span for the time a traced event sat in a ready queue before this pull."""
    trace = event.request.trace
    if trace is None or event.enqueued_at is None:
        return
    tracer().record(
        trace.trace_id,
        "queue.wait",
        time.perf_counter() - event.enqueued_at,
        parent_span_id=trace.parent_span_id,
        attributes={"signature": event.signature, "stage_index": event.stage_index},
    )


class Executor(threading.Thread):
    """A worker thread bound to one logical core."""

    def __init__(
        self,
        executor_id: int,
        scheduler: Scheduler,
        materializer: Optional[SubPlanMaterializer] = None,
    ):
        super().__init__(name=f"pretzel-executor-{executor_id}", daemon=True)
        self.executor_id = executor_id
        self.scheduler = scheduler
        self.materializer = materializer
        self.stages_executed = 0
        self.batches_executed = 0
        self.busy_seconds = 0.0
        self._stop_event = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        batching = self.scheduler.enable_stage_batching
        while not self._stop_event.is_set() and not self.scheduler.is_shut_down:
            if batching:
                batch = self.scheduler.next_batch(self.executor_id)
                if batch is None:
                    continue
                self.execute_batch(batch)
            else:
                event = self.scheduler.next_event(self.executor_id)
                if event is None:
                    continue
                self.execute_event(event)

    def execute_event(self, event: StageEvent) -> None:
        """Run one stage event (also callable synchronously from tests)."""
        request = event.request
        stage = request.plan.stages[event.stage_index]
        trace = request.trace
        if trace is not None:
            _record_queue_wait(event)
            started = time.perf_counter()
        try:
            output = execute_plan_stage(stage, request.record, request.values, self.materializer)
        except BaseException as error:  # noqa: BLE001 - forwarded to the caller
            self.scheduler.on_stage_error(event, error)
            return
        if trace is not None:
            record_stage_span(trace, stage, time.perf_counter() - started)
        self.stages_executed += 1
        self.scheduler.on_stage_complete(event, output)

    def execute_batch(self, batch: StageBatch) -> None:
        """Run one coalesced stage batch (also callable synchronously from tests).

        A failure inside the vectorized path cannot be attributed to a single
        member, so the batch is retried event by event through the scalar
        path; only the offending request fails.  A single event, or any batch
        while materialization is enabled, takes that scalar path directly.
        """
        if len(batch) == 1 or (self.materializer is not None and self.materializer.enabled):
            for event in batch.events:
                self.execute_event(event)
            return
        items = [
            (
                event.request.plan.stages[event.stage_index],
                event.request.record,
                event.request.values,
            )
            for event in batch.events
        ]
        traced = [event for event in batch.events if event.request.trace is not None]
        for event in traced:
            _record_queue_wait(event)
        started = time.perf_counter() if traced else 0.0
        try:
            outputs = execute_plan_stage_batch(items)
        except BaseException:  # noqa: BLE001 - re-run members to isolate the fault
            for event in batch.events:
                self.execute_event(event)
            return
        if traced:
            # each traced member charges the whole vectorized call once, the
            # same per-record attribution the offline fig5 harness uses
            duration = time.perf_counter() - started
            for event in traced:
                record_stage_span(
                    event.request.trace,
                    event.request.plan.stages[event.stage_index],
                    duration,
                    events=len(batch),
                )
        self.stages_executed += len(batch)
        self.batches_executed += 1
        for event, output in zip(batch.events, outputs):
            self.scheduler.on_stage_complete(event, output)

    def stop(self) -> None:
        self._stop_event.set()


class ExecutorPool:
    """The fixed set of executors the batch engine schedules over."""

    def __init__(
        self,
        scheduler: Scheduler,
        num_executors: int,
        materializer: Optional[SubPlanMaterializer] = None,
    ):
        if num_executors < 1:
            raise ValueError("need at least one executor")
        self.scheduler = scheduler
        self.executors: List[Executor] = [
            Executor(
                executor_id=index,
                scheduler=scheduler,
                materializer=materializer,
            )
            for index in range(num_executors)
        ]
        self._started = False
        self._shut_down = False

    def start(self) -> None:
        if self._started:
            return
        if self._shut_down:
            raise RuntimeError("executor pool is shut down")
        for executor in self.executors:
            executor.start()
        self._started = True

    @property
    def started(self) -> bool:
        return self._started

    def shutdown(self) -> None:
        self.scheduler.shutdown()
        self._shut_down = True
        for executor in self.executors:
            executor.stop()
        if self._started:
            for executor in self.executors:
                executor.join(timeout=1.0)
        self._started = False

    def __len__(self) -> int:
        return len(self.executors)
