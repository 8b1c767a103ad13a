"""The scheduler's invariant under real threads.

Four producers submit 3-stage requests (some latency-sensitive, some for a
reserved plan) while three executor threads pull stage batches; the reserved
plan is released mid-run while its private queue still holds events, which
must be re-routed to the shared queues.  The producers' second halves are queued while the
executors are held back, and the scheduler is shut down on top of them.
Every ``(request, stage)`` must run exactly once and in stage order, every
request must either complete or fail with the shutdown error, and no wait may
time out.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import pytest

from repro.core.scheduler import InferenceRequest, Scheduler
from repro.testing import StubPlan

PRODUCERS = 4
REQUESTS_PER_PRODUCER = 150
HALF = REQUESTS_PER_PRODUCER // 2
EXECUTORS = 3
RESERVED_EXECUTOR = 2


def test_every_stage_runs_once_in_order_across_threads():
    scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=4)
    scheduler.reserve("reserved", RESERVED_EXECUTOR)
    # both plans run the same physical stages, so batches could mix them if
    # reservation isolation broke
    plan = StubPlan("a", "b", "c")
    log_lock = threading.Lock()
    stages_run = defaultdict(list)  # request id -> stage indices in run order
    violations = []
    unreserve_started = threading.Event()
    unreserve_due = threading.Event()
    executors_held = threading.Event()
    first_halves_in = threading.Barrier(PRODUCERS + 1)
    second_half = threading.Event()
    serving = threading.Event()
    serving.set()
    requests = [[] for _ in range(PRODUCERS)]

    def produce(index):
        for step in range(REQUESTS_PER_PRODUCER):
            if step == HALF:
                first_halves_in.wait(timeout=10)
                assert second_half.wait(timeout=10)
            plan_id = "reserved" if step % 3 == 0 else f"shared-{index}"
            request = InferenceRequest(plan_id, plan, step, latency_sensitive=step % 4 == 1)
            requests[index].append(scheduler.submit(request))
            if index == 0 and step == HALF // 2:
                unreserve_due.set()
                assert executors_held.wait(timeout=10)

    def execute(executor_id):
        while not scheduler.is_shut_down:
            serving.wait()
            batch = scheduler.next_batch(executor_id, timeout=0.05)
            if batch is None:
                continue
            # read after the pull returned: False means the pull finished
            # before unreserve was even called, so the reservation held
            reserved_held = not unreserve_started.is_set()
            plan_ids = {event.request.plan_id for event in batch}
            if reserved_held and (executor_id == RESERVED_EXECUTOR) != (plan_ids == {"reserved"}):
                violations.append(f"executor {executor_id} pulled {plan_ids} while reserved")
            if len({event.signature for event in batch}) != 1:
                violations.append(f"mixed signatures in one batch: {batch.signature}")
            if len(batch) > 1 and any(event.request.latency_sensitive for event in batch):
                violations.append("a latency-sensitive event was coalesced")
            for event in batch:
                with log_lock:
                    stages_run[event.request.request_id].append(event.stage_index)
                scheduler.on_stage_complete(event, event.stage_index)

    threads = [
        threading.Thread(target=execute, args=(i,), daemon=True) for i in range(EXECUTORS)
    ] + [threading.Thread(target=produce, args=(i,), daemon=True) for i in range(PRODUCERS)]
    for thread in threads:
        thread.start()
    try:
        assert unreserve_due.wait(timeout=10)
        # hold the executors back while producer 0 keeps submitting; after
        # the hold each executor finishes at most one pull (one batch), so
        # a deeper private queue still holds events when it is released
        serving.clear()
        executors_held.set()
        private = f"reserved[{RESERVED_EXECUTOR}]"
        deadline = time.monotonic() + 10
        while scheduler.queue_depths()[private] <= scheduler.max_stage_batch_size:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        unreserve_started.set()
        assert scheduler.unreserve("reserved") is True
        serving.set()
        first_halves_in.wait(timeout=10)
        for produced in requests:
            for request in produced[:HALF]:
                assert request.wait(timeout=10) == 2
        # hold the executors back (each may still finish one pull) so the
        # second halves are still queued when the scheduler shuts down
        serving.clear()
        second_half.set()
        for thread in threads[EXECUTORS:]:
            thread.join(timeout=10)
            assert not thread.is_alive()
        scheduler.shutdown()
    finally:
        scheduler.shutdown()
        serving.set()
    for thread in threads[:EXECUTORS]:
        thread.join(timeout=10)
        assert not thread.is_alive()

    assert violations == []
    completed = failed = 0
    for request in (request for produced in requests for request in produced):
        stages = stages_run.get(request.request_id, [])
        try:
            assert request.wait(timeout=10) == 2
        except RuntimeError as error:
            assert "shut down" in str(error)
            assert stages == list(range(len(stages))) and len(stages) < 3
            failed += 1
        else:
            assert stages == [0, 1, 2]
            completed += 1
    assert completed + failed == PRODUCERS * REQUESTS_PER_PRODUCER
    assert completed >= PRODUCERS * HALF
    assert failed > 0
    with pytest.raises(RuntimeError, match="shut down"):
        scheduler.submit(InferenceRequest("late", plan, 0)).wait(timeout=0.0)
