"""Front-end delayed batching: end-to-end through the batch engine.

Covers the satellite regressions (empty ``records``, the ``buffered`` flag,
measured-not-surcharged flush latency), the deadline flush timer, and the
acceptance criterion that a front-end-only delayed workload shows up in the
runtime's ``stage_batching`` telemetry -- i.e. that ``predict_delayed``
records really flow through ``runtime.submit()`` into stage-level coalescing.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import PretzelConfig
from repro.core.frontend import FlushError, FrontEndConfig, PretzelFrontEnd
from repro.core.runtime import PretzelRuntime


@pytest.fixture()
def batching_runtime(sa_pipeline):
    runtime = PretzelRuntime(
        PretzelConfig(num_executors=2, enable_stage_batching=True, max_stage_batch_size=16)
    )
    runtime.register(sa_pipeline, plan_id="sa")
    yield runtime
    runtime.shutdown()


class TestPredictEmptyRecords:
    def test_predict_empty_records_returns_empty_response(self, sa_pipeline):
        runtime = PretzelRuntime(PretzelConfig(num_executors=1))
        try:
            plan_id = runtime.register(sa_pipeline)
            frontend = PretzelFrontEnd(runtime)
            response = frontend.predict(plan_id, [])
            assert response.outputs == []
            assert response.prediction_seconds == 0.0
            assert not response.buffered
        finally:
            runtime.shutdown()

    def test_predict_empty_records_with_cache_enabled(self, sa_pipeline):
        runtime = PretzelRuntime(PretzelConfig(num_executors=1))
        try:
            plan_id = runtime.register(sa_pipeline)
            frontend = PretzelFrontEnd(runtime, FrontEndConfig(enable_cache=True))
            assert frontend.predict(plan_id, []).outputs == []
            assert frontend.cache_stats()["entries"] == 0
        finally:
            runtime.shutdown()


class TestBufferedResponses:
    def test_buffering_is_flagged(self, batching_runtime, sa_inputs):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=8, max_batch_delay_seconds=60.0)
        )
        response = frontend.predict_delayed("sa", [sa_inputs[0]])
        assert response.buffered and response.outputs == []
        # Empty input buffers nothing, so it must not claim to be buffered.
        empty = frontend.predict_delayed("sa", [])
        assert not empty.buffered and empty.outputs == []
        flushed = frontend.flush("sa")
        assert not flushed.buffered
        assert len(flushed.outputs) == 1

    def test_flush_of_nothing_is_empty_and_not_buffered(self, batching_runtime):
        frontend = PretzelFrontEnd(batching_runtime)
        response = frontend.flush("sa")
        assert response.outputs == [] and not response.buffered

    def test_fill_triggered_flush_is_not_charged_the_deadline(
        self, batching_runtime, sa_inputs
    ):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=4, max_batch_delay_seconds=30.0)
        )
        responses = [frontend.predict_delayed("sa", [text]) for text in sa_inputs[:4]]
        assert [r.buffered for r in responses] == [True, True, True, False]
        filled = responses[-1]
        assert len(filled.outputs) == 4
        # Measured wait, not the 30s surcharge the seed front-end charged.
        assert filled.prediction_seconds < 5.0
        assert frontend.pending_counts() == {}


class TestDeadlineTimer:
    def test_deadline_flush_fires_without_filling_the_batch(
        self, batching_runtime, sa_inputs
    ):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=0.05)
        )
        response = frontend.predict_delayed("sa", sa_inputs[:2])
        assert response.buffered
        deadline = time.perf_counter() + 10.0
        while not frontend.auto_flushes and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert not frontend.flush_errors
        assert len(frontend.auto_flushes) == 1
        assert len(frontend.auto_flushes[0].outputs) == 2
        assert frontend.pending_counts() == {}
        # A manual flush afterwards finds nothing left.
        assert frontend.flush("sa").outputs == []

    def test_manual_flush_preempts_the_deadline(self, batching_runtime, sa_inputs):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=0.05)
        )
        frontend.predict_delayed("sa", [sa_inputs[0]])
        flushed = frontend.flush("sa")
        assert len(flushed.outputs) == 1
        time.sleep(0.15)
        assert not frontend.auto_flushes
        assert not frontend.flush_errors

    @pytest.mark.parametrize("delay_seconds", [0.05, 60.0])
    def test_monitor_thread_exits_once_no_deadline_is_left(
        self, batching_runtime, sa_inputs, delay_seconds
    ):
        """An idle front end keeps no thread: the monitor leaves after the
        last deadline flush, and a manual flush wakes it to leave at once
        instead of sleeping out the flushed buffer's deadline."""
        frontend = PretzelFrontEnd(
            batching_runtime,
            FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=delay_seconds),
        )
        frontend.predict_delayed("sa", [sa_inputs[0]])
        monitor = frontend._monitor
        assert monitor is not None
        if delay_seconds > 1.0:
            assert monitor.is_alive()
            frontend.flush("sa")
        monitor.join(timeout=10.0)
        assert not monitor.is_alive()
        assert frontend._monitor is None
        assert len(frontend.auto_flushes) == (1 if delay_seconds < 1.0 else 0)


class TestFlushAtomicity:
    """Regression: a flush must fail or complete as a unit -- a mid-loop
    submit failure used to abandon already-submitted requests, and the
    deadline path swallowed the whole buffer silently."""

    def test_flush_of_dead_plan_raises_flush_error_with_drop_count(
        self, batching_runtime, sa_inputs
    ):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=60.0)
        )
        frontend.predict_delayed("sa", sa_inputs[:3])
        batching_runtime.unregister("sa")
        with pytest.raises(FlushError) as excinfo:
            frontend.flush("sa")
        error = excinfo.value
        assert error.plan_id == "sa"
        assert error.submitted_records == 0
        assert error.dropped_records == 3
        assert error.outputs == []
        assert error.__cause__ is not None
        assert frontend.dropped_records == 3
        # The buffer was consumed either way: nothing lingers to re-flush.
        assert frontend.pending_counts() == {}

    def test_mid_loop_submit_failure_drains_submitted_requests(
        self, batching_runtime, sa_inputs
    ):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=60.0)
        )
        real_submit = batching_runtime.submit
        calls = []

        def flaky_submit(plan_id, record):
            calls.append(record)
            if len(calls) == 3:
                raise RuntimeError("injected submit failure")
            return real_submit(plan_id, record)

        frontend.predict_delayed("sa", sa_inputs[:4])
        try:
            batching_runtime.submit = flaky_submit
            with pytest.raises(FlushError) as excinfo:
                frontend.flush("sa")
        finally:
            batching_runtime.submit = real_submit
        error = excinfo.value
        # Two records made it in before the injected failure; both were
        # waited and their outputs collected rather than abandoned.
        assert error.submitted_records == 2
        assert len(error.outputs) == 2
        expected = [batching_runtime.predict("sa", text) for text in sa_inputs[:2]]
        assert error.outputs == pytest.approx(expected)
        assert error.dropped_records == 2
        assert str(error.__cause__) == "injected submit failure"
        assert frontend.dropped_records == 2

    def test_deadline_flush_failure_is_recorded_not_swallowed(
        self, batching_runtime, sa_inputs
    ):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=0.05)
        )
        frontend.predict_delayed("sa", sa_inputs[:2])
        batching_runtime.unregister("sa")
        deadline = time.perf_counter() + 10.0
        while not frontend.flush_errors and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert len(frontend.flush_errors) == 1
        error = frontend.flush_errors[0]
        assert isinstance(error, FlushError)
        assert error.dropped_records == 2
        assert frontend.dropped_records == 2
        assert not frontend.auto_flushes


class TestDelayedBatchingFeedsStageBatching:
    def test_front_end_only_workload_shows_stage_batching_occupancy(
        self, batching_runtime, sa_inputs
    ):
        """Acceptance: delayed-batching records flow through runtime.submit()
        into stage-level coalescing, visible in PretzelRuntime.stats()."""
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=8, max_batch_delay_seconds=60.0)
        )
        inline = [batching_runtime.predict("sa", text) for text in sa_inputs[:8]]
        batching_runtime.scheduler.batching.reset()
        records = list(sa_inputs[:8])
        responses = [frontend.predict_delayed("sa", [record]) for record in records]
        flushed = responses[-1]  # the eighth record filled the batch
        assert len(flushed.outputs) == 8
        assert flushed.outputs == pytest.approx(inline)
        snapshot = batching_runtime.stats()["stage_batching"]
        assert snapshot["batches"] > 0
        stages = len(batching_runtime.plan("sa").stages)
        assert snapshot["events"] == 8 * stages
        occupancy = batching_runtime.scheduler.batching.occupancy(16)
        assert occupancy > 0.0

    def test_delayed_results_match_plain_predict(self, batching_runtime, sa_inputs):
        frontend = PretzelFrontEnd(
            batching_runtime, FrontEndConfig(max_batch_size=16, max_batch_delay_seconds=60.0)
        )
        frontend.predict_delayed("sa", sa_inputs[:3])
        flushed = frontend.flush("sa")
        expected = [batching_runtime.predict("sa", text) for text in sa_inputs[:3]]
        assert flushed.outputs == pytest.approx(expected)
