"""Scheduler edge cases: error propagation, depth accounting, shutdown.

Like the stage-batching tests these are single-threaded and sleep-free: all
pulls use ``timeout=0.0`` and stub plans that carry nothing but signatures.
"""

from __future__ import annotations

import pytest

from repro.core.executors import ExecutorPool
from repro.core.scheduler import InferenceRequest, Scheduler
from repro.testing import StubPlan


def _submit(scheduler, plan_id="plan", plan=None, latency_sensitive=False):
    request = InferenceRequest(
        plan_id, plan or StubPlan("a", "b"), "record", latency_sensitive=latency_sensitive
    )
    scheduler.submit(request)
    return request


class TestErrorPropagation:
    def test_stage_error_propagates_through_wait(self):
        scheduler = Scheduler()
        request = _submit(scheduler)
        (event,) = scheduler.next_batch(0, timeout=0.0)
        error = ValueError("bad feature vector")
        scheduler.on_stage_error(event, error)
        assert request.done
        assert request.error is error
        with pytest.raises(ValueError, match="bad feature vector"):
            request.wait(timeout=0.0)
        # Completion bookkeeping is consistent: the failed request has a
        # completion time (so latency accounting still works) and re-waiting
        # keeps raising the original error rather than hanging.
        assert request.latency_seconds is not None
        with pytest.raises(ValueError):
            request.wait(timeout=0.0)

    def test_mid_pipeline_error_does_not_requeue_later_stages(self):
        scheduler = Scheduler()
        _submit(scheduler)
        (event,) = scheduler.next_batch(0, timeout=0.0)
        scheduler.on_stage_error(event, RuntimeError("boom"))
        assert scheduler.next_batch(0, timeout=0.0) is None
        assert scheduler.queue_depths() == {"low": 0, "high": 0}


class TestQueueDepthAccounting:
    def test_empty_scheduler(self):
        assert Scheduler().queue_depths() == {"low": 0, "high": 0}

    def test_depths_track_submissions_pulls_and_requeues(self):
        scheduler = Scheduler()
        requests = [_submit(scheduler, f"p{i}") for i in range(3)]
        assert scheduler.queue_depths() == {"low": 3, "high": 0}
        (event,) = scheduler.next_batch(0, timeout=0.0)
        assert scheduler.queue_depths() == {"low": 2, "high": 0}
        scheduler.on_stage_complete(event, output=None)
        assert scheduler.queue_depths() == {"low": 2, "high": 1}
        assert scheduler.scheduled_events == 4  # 3 first stages + 1 requeue
        assert requests[0].done is False

    def test_reserved_queue_appears_and_counts(self):
        scheduler = Scheduler()
        scheduler.reserve("mine", executor_id=2)
        assert scheduler.queue_depths() == {"low": 0, "high": 0, "reserved[2]": 0}
        _submit(scheduler, "mine")
        _submit(scheduler, "other")
        assert scheduler.queue_depths() == {"low": 1, "high": 0, "reserved[2]": 1}
        # Two plans may share one reserved executor; both land in its queue.
        scheduler.reserve("mine-too", executor_id=2)
        _submit(scheduler, "mine-too")
        assert scheduler.queue_depths()["reserved[2]"] == 2


class TestShutdownWithQueuedEvents:
    def test_pending_requests_fail_fast_without_hang(self):
        scheduler = Scheduler()
        scheduler.reserve("mine", executor_id=1)
        pending = [_submit(scheduler, f"p{i}") for i in range(3)]
        pending.append(_submit(scheduler, "mine"))
        scheduler.shutdown()
        assert scheduler.is_shut_down
        for request in pending:
            assert request.done
            # wait() returns immediately (no TimeoutError) with the shutdown error.
            with pytest.raises(RuntimeError, match="shut down"):
                request.wait(timeout=0.0)
        assert scheduler.queue_depths() == {"low": 0, "high": 0, "reserved[1]": 0}

    def test_in_flight_requeue_also_fails_after_shutdown(self):
        scheduler = Scheduler()
        request = _submit(scheduler)
        (event,) = scheduler.next_batch(0, timeout=0.0)
        scheduler.shutdown()
        # An executor finishing its current stage after shutdown requeues the
        # next stage into a drained scheduler; the request must fail fast, not
        # strand in a queue nobody will ever drain.
        scheduler.on_stage_complete(event, output=None)
        assert request.done
        with pytest.raises(RuntimeError, match="shut down"):
            request.wait(timeout=0.0)
        assert scheduler.next_batch(0, timeout=0.0) is None

    def test_submit_after_shutdown_fails_immediately(self):
        scheduler = Scheduler()
        scheduler.shutdown()
        request = _submit(scheduler)
        assert request.done
        with pytest.raises(RuntimeError, match="shut down"):
            request.wait(timeout=0.0)

    def test_executor_pool_shutdown_with_queued_events_does_not_hang(self):
        scheduler = Scheduler()
        pool = ExecutorPool(scheduler, num_executors=2)
        # Never started: queued events can only be served after start(), so a
        # shutdown here must fail them fast instead of leaving them queued.
        pending = [_submit(scheduler, f"p{i}") for i in range(4)]
        pool.shutdown()
        for request in pending:
            with pytest.raises(RuntimeError):
                request.wait(timeout=0.0)
