"""Tests for the PRETZEL runtime, scheduler, executors, engines and front-end."""


import pytest

from repro.core.config import PretzelConfig
from repro.core.engines import execute_plan
from repro.core.executors import Executor, ExecutorPool
from repro.core.frontend import FrontEndConfig, PretzelFrontEnd
from repro.core.runtime import PretzelRuntime
from repro.core.scheduler import InferenceRequest, Scheduler


@pytest.fixture()
def runtime():
    instance = PretzelRuntime(PretzelConfig(num_executors=2))
    yield instance
    instance.shutdown()


class TestRegistration:
    def test_register_pipeline_and_predict(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline)
        expected = sa_pipeline.predict(sa_inputs[0])
        assert runtime.predict(plan_id, sa_inputs[0]) == pytest.approx(expected)

    def test_register_flour_program(self, runtime, sa_pipeline, sa_inputs):
        from repro.core.flour import flour_from_pipeline

        plan_id = runtime.register(flour_from_pipeline(sa_pipeline))
        assert runtime.predict(plan_id, sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )

    def test_register_invalid_type_rejected(self, runtime):
        with pytest.raises(TypeError):
            runtime.register(42)

    def test_duplicate_plan_id_rejected(self, runtime, sa_pipeline):
        runtime.register(sa_pipeline, plan_id="fixed")
        with pytest.raises(ValueError):
            runtime.register(sa_pipeline, plan_id="fixed")

    def test_unregister(self, runtime, sa_pipeline):
        plan_id = runtime.register(sa_pipeline)
        runtime.unregister(plan_id)
        assert plan_id not in runtime.plan_ids()

    def test_unknown_plan_rejected(self, runtime):
        with pytest.raises(KeyError):
            runtime.predict("missing", "x")

    def test_shared_stage_accounting(self, runtime, sa_pipeline, sa_pipeline_variant):
        runtime.register(sa_pipeline)
        runtime.register(sa_pipeline_variant)
        assert runtime.shared_stage_count() >= 2
        assert runtime.unique_stage_count() < 2 * runtime.plan(runtime.plan_ids()[0]).stage_count()


class TestMemoryAccounting:
    def test_sharing_reduces_memory(self, sa_pipeline, sa_pipeline_variant):
        shared = PretzelRuntime(PretzelConfig())
        unshared = PretzelRuntime(PretzelConfig(enable_object_store=False))
        for runtime in (shared, unshared):
            runtime.register(sa_pipeline)
            runtime.register(sa_pipeline_variant)
        try:
            assert shared.memory_bytes() < unshared.memory_bytes()
        finally:
            shared.shutdown()
            unshared.shutdown()

    def test_registration_time_recorded(self, runtime, sa_pipeline):
        runtime.register(sa_pipeline)
        assert runtime.registration_seconds() > 0

    def test_stats_shape(self, runtime, sa_pipeline):
        runtime.register(sa_pipeline)
        stats = runtime.stats()
        assert stats["plans"] == 1
        assert "object_store" in stats


class TestEngines:
    def test_batch_engine_matches_request_response(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline, engine="batch")
        inline = [runtime.predict(plan_id, text) for text in sa_inputs]
        batched = runtime.predict_batch(plan_id, sa_inputs)
        assert batched == pytest.approx(inline)

    def test_async_submit(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline)
        request = runtime.submit(plan_id, sa_inputs[0])
        result = request.wait(timeout=10.0)
        assert result == pytest.approx(sa_pipeline.predict(sa_inputs[0]))
        assert request.latency_seconds is not None

    def test_execute_plan_helper(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline)
        plan = runtime.plan(plan_id)
        assert execute_plan(plan, sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )

    def test_ablation_configs_still_correct(self, sa_pipeline, sa_inputs):
        """Disabling each optimization must never change predictions."""
        expected = sa_pipeline.predict(sa_inputs[0])
        configs = [
            PretzelConfig(enable_aot_compilation=False),
            PretzelConfig(enable_object_store=False),
            PretzelConfig(enable_subplan_materialization=True),
        ]
        for config in configs:
            runtime = PretzelRuntime(config)
            try:
                plan_id = runtime.register(sa_pipeline)
                assert runtime.predict(plan_id, sa_inputs[0]) == pytest.approx(expected)
            finally:
                runtime.shutdown()

    def test_materialization_hits_across_plans(self, sa_pipeline, sa_pipeline_variant, sa_inputs):
        runtime = PretzelRuntime(PretzelConfig(enable_subplan_materialization=True))
        try:
            first = runtime.register(sa_pipeline)
            second = runtime.register(sa_pipeline_variant)
            runtime.predict(first, sa_inputs[0])
            before = runtime.materializer.stats()["hits"]
            runtime.predict(second, sa_inputs[0])
            after = runtime.materializer.stats()["hits"]
            assert after > before
        finally:
            runtime.shutdown()


class TestScheduler:
    def _request(self, runtime, sa_pipeline, record):
        plan_id = runtime.register(sa_pipeline)
        plan = runtime.plan(plan_id)
        return InferenceRequest(plan_id, plan, record)

    def test_two_priority_queues(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        request = self._request(runtime, sa_pipeline, sa_inputs[0])
        scheduler.submit(request)
        depths = scheduler.queue_depths()
        assert depths["low"] == 1 and depths["high"] == 0
        event = scheduler.next_event(executor_id=0, timeout=0.01)
        assert event is not None and event.is_first
        scheduler.on_stage_complete(event, output=None)
        depths = scheduler.queue_depths()
        assert depths["high"] == 1  # in-flight stages go to the high queue

    def test_high_priority_served_first(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        first = self._request(runtime, sa_pipeline, sa_inputs[0])
        scheduler.submit(first)
        event = scheduler.next_event(0, timeout=0.01)
        scheduler.on_stage_complete(event, output=None)
        second = self._request(runtime, sa_pipeline, sa_inputs[1])
        scheduler.submit(second)
        next_event = scheduler.next_event(0, timeout=0.01)
        assert next_event.request is first  # the in-flight request wins

    def test_reservation_routes_to_private_queue(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        request = self._request(runtime, sa_pipeline, sa_inputs[0])
        scheduler.reserve(request.plan_id, executor_id=1)
        scheduler.submit(request)
        assert scheduler.next_event(0, timeout=0.01) is None
        event = scheduler.next_event(1, timeout=0.01)
        assert event is not None

    def test_request_completion_and_error(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        request = self._request(runtime, sa_pipeline, sa_inputs[0])
        scheduler.submit(request)
        event = scheduler.next_event(0, timeout=0.01)
        scheduler.on_stage_error(event, RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            request.wait(timeout=1.0)

    def test_executor_runs_stage_events(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        executor = Executor(0, scheduler, materializer=runtime.materializer)
        request = self._request(runtime, sa_pipeline, sa_inputs[0])
        scheduler.submit(request)
        while not request.done:
            event = scheduler.next_event(0, timeout=0.01)
            assert event is not None
            executor.execute_event(event)
        assert request.result == pytest.approx(sa_pipeline.predict(sa_inputs[0]))
        assert executor.stages_executed == len(request.plan.stages)

    def test_executor_pool_lifecycle(self):
        scheduler = Scheduler()
        pool = ExecutorPool(scheduler, num_executors=2)
        pool.start()
        assert pool.started
        pool.shutdown()
        assert scheduler.is_shut_down

    def test_reserved_plan_executes_via_runtime(self, sa_pipeline, sa_inputs):
        runtime = PretzelRuntime(PretzelConfig(num_executors=2))
        try:
            plan_id = runtime.register(sa_pipeline, reserve=True)
            outputs = runtime.predict_batch(plan_id, sa_inputs[:3])
            assert outputs == pytest.approx([sa_pipeline.predict(t) for t in sa_inputs[:3]])
        finally:
            runtime.shutdown()


class TestFrontEnd:
    def test_end_to_end_latency_includes_network(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline)
        frontend = PretzelFrontEnd(runtime)
        response = frontend.predict(plan_id, [sa_inputs[0]])
        assert response.network_seconds >= 0.004
        assert response.end_to_end_seconds > response.prediction_seconds

    def test_several_records_take_predict_batch_and_one_takes_predict(
        self, runtime, sa_pipeline, sa_inputs, monkeypatch
    ):
        plan_id = runtime.register(sa_pipeline)
        frontend = PretzelFrontEnd(runtime)
        calls = []
        for name in ("predict", "predict_batch"):
            real = getattr(runtime, name)
            monkeypatch.setattr(
                runtime, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
            )
        single = frontend.predict(plan_id, sa_inputs[:1]).outputs
        several = frontend.predict(plan_id, sa_inputs[:3]).outputs
        assert calls == ["predict", "predict_batch"]
        assert single == pytest.approx([sa_pipeline.predict(sa_inputs[0])])
        assert several == pytest.approx([sa_pipeline.predict(text) for text in sa_inputs[:3]])

    def test_prediction_cache(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline)
        frontend = PretzelFrontEnd(runtime, FrontEndConfig(enable_cache=True))
        first = frontend.predict(plan_id, [sa_inputs[0]])
        second = frontend.predict(plan_id, [sa_inputs[0]])
        assert not first.cache_hit and second.cache_hit
        assert second.outputs == first.outputs

    def test_delayed_batching_flush(self, runtime, sa_pipeline, sa_inputs):
        plan_id = runtime.register(sa_pipeline)
        # A deadline far in the future so only the manual flush fires here.
        frontend = PretzelFrontEnd(
            runtime, FrontEndConfig(max_batch_size=4, max_batch_delay_seconds=60.0)
        )
        for text in sa_inputs[:3]:
            response = frontend.predict_delayed(plan_id, [text])
            assert response.outputs == []
            assert response.buffered
        assert frontend.pending_counts() == {plan_id: 3}
        flushed = frontend.flush(plan_id)
        assert len(flushed.outputs) == 3
        assert not flushed.buffered
        # The measured wait replaces the old flat max_batch_delay surcharge.
        assert flushed.prediction_seconds < 60.0
        assert frontend.pending_counts() == {}

    def test_memory_includes_runtime(self, runtime, sa_pipeline):
        runtime.register(sa_pipeline)
        frontend = PretzelFrontEnd(runtime)
        assert frontend.memory_bytes() > runtime.memory_bytes()


class TestReservationRelease:
    def test_unreserve_returns_executor_to_shared_pool(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        scheduler.reserve("reserved-plan", executor_id=0)
        assert scheduler.reservation_for("reserved-plan") == 0
        assert scheduler.reserved_executor_ids() == [0]
        # A shared request is invisible to the reserved executor...
        plan_id = runtime.register(sa_pipeline)
        scheduler.submit(InferenceRequest(plan_id, runtime.plan(plan_id), sa_inputs[0]))
        assert scheduler.next_event(executor_id=0, timeout=0.01) is None
        assert scheduler.unreserve("reserved-plan") is True
        assert scheduler.reservation_for("reserved-plan") is None
        assert scheduler.reserved_executor_ids() == []
        # ...and served by it once the reservation is released.
        assert scheduler.next_event(executor_id=0, timeout=0.01) is not None

    def test_unreserve_requeues_stranded_private_events(self, runtime, sa_pipeline, sa_inputs):
        scheduler = Scheduler()
        plan_id = runtime.register(sa_pipeline)
        scheduler.reserve(plan_id, executor_id=1)
        scheduler.submit(InferenceRequest(plan_id, runtime.plan(plan_id), sa_inputs[0]))
        events_before = scheduler.scheduled_events
        assert scheduler.unreserve(plan_id) is True
        # The queued event moved to the shared queues (not lost, not
        # double-counted) and any executor can now pull it.
        assert scheduler.scheduled_events == events_before
        assert scheduler.queue_depths()["low"] == 1
        assert scheduler.next_event(executor_id=0, timeout=0.01) is not None

    def test_unreserve_keeps_executor_while_other_plan_holds_it(self):
        scheduler = Scheduler()
        scheduler.reserve("a", executor_id=0)
        scheduler.reserve("b", executor_id=0)
        assert scheduler.unreserve("a") is True
        assert scheduler.reserved_executor_ids() == [0]  # "b" still holds it
        assert scheduler.unreserve("b") is True
        assert scheduler.reserved_executor_ids() == []

    def test_unreserve_unknown_plan_is_a_noop(self):
        assert Scheduler().unreserve("ghost") is False

    def test_runtime_unregister_releases_reservation(self, runtime, sa_pipeline, sa_inputs):
        """register(reserve=True) + unregister cycles must not permanently
        dedicate executors to gone plans (pool starvation)."""
        for cycle in range(3):
            plan_id = runtime.register(sa_pipeline, reserve=True, plan_id=f"r{cycle}")
            assert runtime.scheduler.reservation_for(plan_id) is not None
            runtime.unregister(plan_id)
            assert runtime.scheduler.reservation_for(plan_id) is None
        assert runtime.scheduler.reserved_executor_ids() == []
        # The batch engine still serves with its full shared pool.
        plan_id = runtime.register(sa_pipeline, engine="batch")
        outputs = runtime.predict_batch(plan_id, sa_inputs[:3])
        assert outputs == pytest.approx([sa_pipeline.predict(t) for t in sa_inputs[:3]])
