"""Tests for the virtual-time queueing simulator and its calibration helpers."""

import pytest

from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.core.scheduler import Scheduler
from repro.mlnet.runtime import MLNetRuntime
from repro.simulation.calibrate import calibrate_blackbox, calibrate_plan_stages
from repro.simulation.queueing import (
    Arrival,
    ArrivalProcess,
    simulate_stage_scheduler,
    simulate_thread_per_request,
)
from repro.workloads.zipf import zipf_request_sequence


def _constant_arrivals(n, rate, model="m"):
    return ArrivalProcess.constant_rate([model], requests_per_second=rate, duration_seconds=n / rate)


class TestArrivalProcess:
    def test_constant_rate_spacing(self):
        arrivals = ArrivalProcess.constant_rate(["a"], 100.0, 0.1)
        assert len(arrivals) == 10
        assert arrivals[1].time - arrivals[0].time == pytest.approx(0.01)

    def test_from_model_sequence(self):
        arrivals = ArrivalProcess.from_model_sequence(["a", "b", "a"], 10.0, batch_sizes={"b": 4})
        assert [a.model for a in arrivals] == ["a", "b", "a"]
        assert arrivals[1].batch_size == 4

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ArrivalProcess.constant_rate(["a"], 0.0, 1.0)


class TestThreadPerRequestSimulation:
    def test_throughput_saturates_at_capacity(self):
        service = 0.01  # 10 ms per request -> 100 QPS per core
        arrivals = _constant_arrivals(500, rate=1000.0)
        result = simulate_thread_per_request(arrivals, lambda m, b: service, n_cores=2)
        assert result.throughput_qps == pytest.approx(200.0, rel=0.1)

    def test_underload_latency_equals_service_time(self):
        arrivals = _constant_arrivals(50, rate=10.0)
        result = simulate_thread_per_request(arrivals, lambda m, b: 0.001, n_cores=4)
        assert result.mean_latency == pytest.approx(0.001, rel=0.05)

    def test_more_cores_more_throughput(self):
        arrivals = _constant_arrivals(400, rate=10000.0)
        few = simulate_thread_per_request(arrivals, lambda m, b: 0.005, n_cores=1)
        many = simulate_thread_per_request(arrivals, lambda m, b: 0.005, n_cores=4)
        assert many.throughput_qps > 3.0 * few.throughput_qps

    def test_contention_slows_scaling(self):
        arrivals = _constant_arrivals(400, rate=10000.0)
        ideal = simulate_thread_per_request(arrivals, lambda m, b: 0.005, n_cores=8)
        contended = simulate_thread_per_request(
            arrivals, lambda m, b: 0.005, n_cores=8, contention_per_core=0.05
        )
        assert contended.throughput_qps < ideal.throughput_qps

    def test_switch_penalty_applied(self):
        arrivals = [Arrival(time=0.0, model="a"), Arrival(time=0.0, model="b")]
        result = simulate_thread_per_request(
            arrivals, lambda m, b: 0.001, n_cores=1, model_switch_penalty=0.01
        )
        assert result.makespan_seconds > 0.02

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            simulate_thread_per_request([], lambda m, b: 0.1, n_cores=0)


class TestStageSchedulerSimulation:
    def test_matches_thread_model_for_single_stage(self):
        arrivals = _constant_arrivals(200, rate=5000.0)
        stage = simulate_stage_scheduler(arrivals, lambda m, b: [0.002], n_cores=2, event_overhead=0.0)
        thread = simulate_thread_per_request(arrivals, lambda m, b: 0.002, n_cores=2)
        assert stage.throughput_qps == pytest.approx(thread.throughput_qps, rel=0.05)

    def test_multi_stage_pipeline_parallelism(self):
        """Two stages on two cores should overlap across requests."""
        arrivals = _constant_arrivals(200, rate=10000.0)
        result = simulate_stage_scheduler(
            arrivals, lambda m, b: [0.001, 0.001], n_cores=2, event_overhead=0.0
        )
        # With perfect pipelining the makespan approaches n * 1ms, not n * 2ms.
        assert result.makespan_seconds < 200 * 0.0015

    def test_scales_with_cores(self):
        arrivals = _constant_arrivals(300, rate=50000.0)
        one = simulate_stage_scheduler(arrivals, lambda m, b: [0.001, 0.001], n_cores=1)
        four = simulate_stage_scheduler(arrivals, lambda m, b: [0.001, 0.001], n_cores=4)
        assert four.throughput_qps > 3.0 * one.throughput_qps

    def test_reservation_isolates_model(self):
        """A reserved model keeps low latency while the shared queue is overloaded."""
        background = [
            Arrival(time=i * 0.0001, model="busy", latency_sensitive=False) for i in range(300)
        ]
        reserved = [
            Arrival(time=i * 0.01, model="vip", latency_sensitive=True) for i in range(10)
        ]
        without = simulate_stage_scheduler(
            background + reserved, lambda m, b: [0.002], n_cores=2
        )
        with_reservation = simulate_stage_scheduler(
            background + reserved, lambda m, b: [0.002], n_cores=2, reservations={"vip": 0}
        )
        assert with_reservation.completed == without.completed
        # The reserved run must serve the vip requests with far lower latency
        # than the overloaded shared run does.
        assert with_reservation.mean_latency_sensitive < 0.5 * without.mean_latency_sensitive
        assert with_reservation.mean_latency_sensitive == pytest.approx(0.002, rel=0.5)

    def test_batch_size_scales_work(self):
        arrivals = [Arrival(time=0.0, model="m", batch_size=10)]
        result = simulate_stage_scheduler(arrivals, lambda m, b: [0.001 * b], n_cores=1)
        assert result.makespan_seconds == pytest.approx(0.01, rel=0.1)
        assert result.completed == 10

    def test_invalid_reservation_core(self):
        with pytest.raises(ValueError):
            simulate_stage_scheduler([], lambda m, b: [0.001], n_cores=1, reservations={"x": 5})


class TestCalibration:
    def test_plan_stage_calibration(self, sa_pipeline, sa_inputs):
        runtime = PretzelRuntime(PretzelConfig())
        try:
            plan_id = runtime.register(sa_pipeline)
            calibrated = calibrate_plan_stages(runtime, plan_id, sa_inputs[:2], repetitions=2)
            plan = runtime.plan(plan_id)
            assert len(calibrated.stage_seconds) == plan.stage_count()
            assert all(seconds > 0 for seconds in calibrated.stage_seconds)
            assert calibrated.stage_times(batch_size=3)[0] == pytest.approx(
                3 * calibrated.stage_seconds[0]
            )
        finally:
            runtime.shutdown()

    def test_blackbox_calibration(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        per_request = calibrate_blackbox(runtime, sa_pipeline.name, sa_inputs[:2], repetitions=2)
        assert per_request > 0


class TestStageBatchingSimulation:
    """Coverage for the simulator's stage-level coalescing (max_stage_batch)."""

    def _arrivals(self, n, latency_sensitive=False):
        return [
            Arrival(time=0.0, model="m", batch_size=1, latency_sensitive=latency_sensitive)
            for _ in range(n)
        ]

    def test_coalescing_amortizes_event_overhead(self):
        """Four same-stage requests ready together: one overhead, not four."""
        overhead = 1e-3
        stage = 0.01
        unbatched = simulate_stage_scheduler(
            self._arrivals(4), lambda m, b: [stage], n_cores=1, event_overhead=overhead
        )
        batched = simulate_stage_scheduler(
            self._arrivals(4), lambda m, b: [stage], n_cores=1,
            event_overhead=overhead, max_stage_batch=4,
        )
        assert unbatched.makespan_seconds == pytest.approx(4 * stage + 4 * overhead)
        assert batched.makespan_seconds == pytest.approx(4 * stage + overhead)
        assert batched.completed == unbatched.completed == 4
        assert batched.throughput_qps > unbatched.throughput_qps

    def test_max_stage_batch_truncates(self):
        """A cap of 2 forms two batches of two, paying two overheads."""
        overhead = 1e-3
        stage = 0.01
        result = simulate_stage_scheduler(
            self._arrivals(4), lambda m, b: [stage], n_cores=1,
            event_overhead=overhead, max_stage_batch=2,
        )
        assert result.makespan_seconds == pytest.approx(4 * stage + 2 * overhead)

    def test_latency_sensitive_not_coalesced(self):
        overhead = 1e-3
        stage = 0.01
        result = simulate_stage_scheduler(
            self._arrivals(4, latency_sensitive=True), lambda m, b: [stage], n_cores=1,
            event_overhead=overhead, max_stage_batch=4,
        )
        # Every latency-sensitive event runs alone: four overheads paid.
        assert result.makespan_seconds == pytest.approx(4 * stage + 4 * overhead)

    def test_different_models_not_coalesced(self):
        overhead = 1e-3
        arrivals = [
            Arrival(time=0.0, model=name, batch_size=1, latency_sensitive=False)
            for name in ("a", "b", "a", "b")
        ]
        result = simulate_stage_scheduler(
            arrivals, lambda m, b: [0.01], n_cores=1,
            event_overhead=overhead, max_stage_batch=4,
        )
        # Only same-(model, stage) events coalesce: a+a and b+b, two overheads.
        assert result.makespan_seconds == pytest.approx(4 * 0.01 + 2 * overhead)

    def test_multi_stage_batches_preserve_latency_accounting(self):
        """Members of a coalesced multi-stage pipeline all finish and count."""
        result = simulate_stage_scheduler(
            self._arrivals(6), lambda m, b: [0.01, 0.02], n_cores=2,
            event_overhead=1e-4, max_stage_batch=3,
        )
        assert result.completed == 6
        assert len(result.latencies) == 6
        assert all(latency > 0 for latency in result.latencies)


class TestShippedPolicy:
    """The simulator runs the shipped Scheduler's policy, not a copy of it."""

    def test_no_commitment_to_an_event_that_is_not_queued_yet(self):
        """A free core never waits on a stage whose predecessor still runs.

        At 0.2 ms core 0 is free while ``b``'s second stage waits on its first
        (running on core 1 until 1 ms); ``c`` arrives at 0.5 ms and must start
        at once on core 0 instead of queueing behind ``b``.
        """
        stage_times = {"a": [0.2e-3], "b": [1e-3, 1e-3], "c": [1e-3]}
        arrivals = [
            Arrival(time=0.0, model="a", latency_sensitive=False),
            Arrival(time=0.0, model="b", latency_sensitive=False),
            Arrival(time=0.5e-3, model="c"),
        ]
        result = simulate_stage_scheduler(
            arrivals, lambda model, batch: stage_times[model], n_cores=2, event_overhead=0.0
        )
        # only c is latency-sensitive, so its latency is the one in that list
        assert result.latencies_sensitive == [pytest.approx(1.0e-3)]
        assert sorted(result.latencies) == pytest.approx([0.2e-3, 1.0e-3, 2.0e-3])

    def test_same_stage_order_as_the_threaded_runtime(
        self, monkeypatch, sa_pipeline, sa_pipeline_variant, ac_pipeline, sa_inputs, ac_inputs
    ):
        """One executor and one virtual core run the same (plan, stage) order.

        With a single executor both sides are depth-first FIFO: a request's
        next stage goes to the high-priority queue before the executor pulls
        again, so the order does not depend on thread timing.
        """
        order = []
        shipped = Scheduler.on_stage_complete

        def recording(scheduler, event, output):
            order.append((event.request.plan_id, event.stage_index))
            shipped(scheduler, event, output)

        monkeypatch.setattr(Scheduler, "on_stage_complete", recording)
        config = PretzelConfig(num_executors=1, enable_stage_batching=False)
        with PretzelRuntime(config) as runtime:
            records = {}
            for pipeline, inputs in (
                (sa_pipeline, sa_inputs),
                (sa_pipeline_variant, sa_inputs),
                (ac_pipeline, ac_inputs),
            ):
                records[runtime.register(pipeline, engine="batch")] = inputs
            plan_ids = list(records)
            trace = [plan_ids[index % 3] for index in range(9)]
            stages = {plan_id: runtime.plan(plan_id).stage_count() for plan_id in plan_ids}
            requests = [
                runtime.submit(plan_id, records[plan_id][index // 3])
                for index, plan_id in enumerate(trace)
            ]
            for request in requests:
                request.wait(timeout=30.0)
        threaded = list(order)
        order.clear()
        result = simulate_stage_scheduler(
            [Arrival(time=0.0, model=plan_id, latency_sensitive=False) for plan_id in trace],
            lambda model, batch: [1e-3] * stages[model],
            n_cores=1,
        )
        assert result.completed == len(trace)
        assert len(threaded) == sum(stages[plan_id] for plan_id in trace)
        assert len(set(plan_ids)) == 3
        assert order == threaded

    def test_two_runs_of_a_fig13_shaped_trace_are_identical(self):
        """Zipf(2) over 24 models (half latency-sensitive at batch 1, half at
        batch 100), 13 cores, past saturation, with stage batching on."""
        models = [f"sa{i}" for i in range(12)] + [f"ac{i}" for i in range(12)]
        stage_times = {
            model: [22e-6, 61e-6, 9e-6] if model.startswith("sa") else [28e-6, 28e-6, 24e-6, 5e-6]
            for model in models
        }
        latency_sensitive = {model: index < 12 for index, model in enumerate(models)}
        batch_sizes = {model: 1 if latency_sensitive[model] else 100 for model in models}
        sequence = zipf_request_sequence(models, 1000, alpha=2.0, seed=3)
        arrivals = ArrivalProcess.from_model_sequence(
            sequence, 1000.0, batch_sizes=batch_sizes, latency_sensitive=latency_sensitive
        )

        def run():
            return simulate_stage_scheduler(
                arrivals,
                lambda model, batch: [t * batch for t in stage_times[model]],
                n_cores=13,
                max_stage_batch=16,
            )

        first, second = run(), run()
        assert first == second
        assert first.completed == sum(arrival.batch_size for arrival in arrivals)
