"""Deterministic tests for cross-plan stage-level batching.

Every test drives the :class:`Scheduler` single-threaded -- events are pulled
with explicit ``next_batch`` calls and a zero (or fake-clock)
timeout, so nothing sleeps and nothing races.  Scheduler-policy tests use stub
plans whose stages carry nothing but a signature; the end-to-end test uses 25
real sentiment plans sharing physical featurization stages.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.scheduler as scheduler_module
from repro.core.config import PretzelConfig
from repro.core.executors import Executor
from repro.core.runtime import PretzelRuntime
from repro.core.scheduler import InferenceRequest, Scheduler, StageBatch
from repro.telemetry.batching import StageBatchTelemetry
from repro.mlnet.pipeline import Pipeline
from repro.operators import (
    CharNgramFeaturizer,
    ColumnSelector,
    ConcatFeaturizer,
    LogisticRegressionClassifier,
    Tokenizer,
    WordNgramFeaturizer,
)
from repro.testing import StubPlan


def _submit(scheduler, plan_id, plan, latency_sensitive=False, record="x"):
    request = InferenceRequest(plan_id, plan, record, latency_sensitive=latency_sensitive)
    scheduler.submit(request)
    return request


class FakeClock:
    """A perf_counter stand-in advancing a fixed step per call (no sleeping)."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestCoalescing:
    def test_coalesces_same_signature_across_plans(self):
        """Events of *different* plans batch together when stages are shared."""
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        shared_a = StubPlan("tok", "model-a")
        shared_b = StubPlan("tok", "model-b")
        requests = [
            _submit(scheduler, "plan-a", shared_a),
            _submit(scheduler, "plan-b", shared_b),
            _submit(scheduler, "plan-a2", shared_a),
        ]
        batch = scheduler.next_batch(0, timeout=0.0)
        assert isinstance(batch, StageBatch)
        assert batch.signature == "tok"
        assert [event.request for event in batch] == requests
        assert scheduler.queue_depths() == {"low": 0, "high": 0}

    def test_non_matching_signature_left_in_queue_order(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan_x = StubPlan("x")
        plan_y = StubPlan("y")
        first = _submit(scheduler, "x1", plan_x)
        other = _submit(scheduler, "y1", plan_y)
        second = _submit(scheduler, "x2", plan_x)
        batch = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in batch] == [first, second]
        # The skipped event is still queued and comes out next, alone.
        leftover = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in leftover] == [other]

    def test_max_stage_batch_size_truncates(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=2)
        plan = StubPlan("tok")
        requests = [_submit(scheduler, f"p{i}", plan) for i in range(5)]
        batch = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in batch] == requests[:2]
        assert scheduler.queue_depths()["low"] == 3
        assert len(scheduler.next_batch(0, timeout=0.0)) == 2
        assert len(scheduler.next_batch(0, timeout=0.0)) == 1

    def test_whole_backlog_coalesces_below_the_cap(self):
        """The cap is a ceiling, not a target: a backlog shorter than it
        leaves in one pull, and the backlog behind the leader is recorded."""
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan = StubPlan("tok")
        for index in range(10):
            scheduler.submit(InferenceRequest(f"p{index}", plan, "x"))
        assert len(scheduler.next_batch(0, timeout=0.0)) == 10
        assert scheduler.batching.mean_backlog("tok") == pytest.approx(9.0)
        assert scheduler.queue_depths() == {"low": 0, "high": 0}

    @pytest.mark.parametrize("kwargs", [{"max_stage_batch_size": 0}])
    def test_rejects_non_positive_sizes(self, kwargs):
        with pytest.raises(ValueError):
            Scheduler(enable_stage_batching=True, **kwargs)

    def test_high_priority_coalesced_before_low(self):
        """In-flight (high-queue) events join a batch ahead of new admissions."""
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=3)
        plan = StubPlan("a", "b")
        inflight = _submit(scheduler, "inflight", plan)
        first_event = scheduler.next_batch(0, timeout=0.0).events[0]
        scheduler.on_stage_complete(first_event, output=None)  # -> high queue, stage "b"
        fresh = StubPlan("b")
        new_request = _submit(scheduler, "new", fresh)
        batch = scheduler.next_batch(0, timeout=0.0)
        # The in-flight stage-1 event leads, and the new plan's same-signature
        # first stage is coalesced behind it.
        assert batch.signature == "b"
        assert [event.request for event in batch] == [inflight, new_request]

    def test_batching_disabled_returns_singleton_batches(self):
        scheduler = Scheduler(enable_stage_batching=False)
        plan = StubPlan("tok")
        _submit(scheduler, "a", plan)
        _submit(scheduler, "b", plan)
        assert len(scheduler.next_batch(0, timeout=0.0)) == 1
        assert len(scheduler.next_batch(0, timeout=0.0)) == 1


class TestLatencySensitiveBypass:
    def test_latency_sensitive_leader_runs_alone(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan = StubPlan("tok")
        leader = _submit(scheduler, "ls", plan, latency_sensitive=True)
        _submit(scheduler, "bulk", plan)
        batch = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in batch] == [leader]

    def test_latency_sensitive_member_not_pulled_into_batch(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan = StubPlan("tok")
        bulk_one = _submit(scheduler, "b1", plan)
        sensitive = _submit(scheduler, "ls", plan, latency_sensitive=True)
        bulk_two = _submit(scheduler, "b2", plan)
        batch = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in batch] == [bulk_one, bulk_two]
        alone = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in alone] == [sensitive]


class TestReservationIsolation:
    def test_reserved_executor_never_batches_foreign_events(self):
        """A reserved executor's batch only ever holds its own plans' events."""
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan = StubPlan("tok")  # same signature everywhere: max temptation
        scheduler.reserve("mine", executor_id=1)
        reserved_requests = [_submit(scheduler, "mine", plan) for _ in range(2)]
        shared_requests = [_submit(scheduler, "other", plan) for _ in range(3)]
        reserved_batch = scheduler.next_batch(1, timeout=0.0)
        assert [event.request for event in reserved_batch] == reserved_requests
        assert all(event.request.plan_id == "mine" for event in reserved_batch)
        shared_batch = scheduler.next_batch(0, timeout=0.0)
        assert [event.request for event in shared_batch] == shared_requests
        assert all(event.request.plan_id == "other" for event in shared_batch)

    def test_shared_executor_never_drains_reserved_queue(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan = StubPlan("tok")
        scheduler.reserve("mine", executor_id=1)
        _submit(scheduler, "mine", plan)
        assert scheduler.next_batch(0, timeout=0.0) is None
        assert scheduler.queue_depths()["reserved[1]"] == 1


class TestFakeClockTimeout:
    def test_next_batch_times_out_without_sleeping(self, monkeypatch):
        clock = FakeClock(step=1.0)
        monkeypatch.setattr(scheduler_module.time, "perf_counter", clock)
        scheduler = Scheduler(enable_stage_batching=True)
        # Each perf_counter call advances the fake clock by a full second, so
        # the deadline is crossed on the first re-check and the condition
        # variable is never waited on (a real wait would hang this test).
        assert scheduler.next_batch(0, timeout=0.5) is None

    def test_telemetry_counts_batches(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=4)
        plan = StubPlan("tok")
        for index in range(6):
            _submit(scheduler, f"p{index}", plan)
        assert len(scheduler.next_batch(0, timeout=0.0)) == 4
        assert len(scheduler.next_batch(0, timeout=0.0)) == 2
        snapshot = scheduler.batching.snapshot()
        assert snapshot == {
            "batches": 2,
            "events": 6,
            "mean_batch_size": 3.0,
            "stages": 1,
            "loop_fallback_stages": {},
        }
        assert scheduler.batching.mean_batch_size("tok") == 3.0
        assert scheduler.batching.occupancy(4) == pytest.approx(0.75)

    def test_forget_clears_every_per_signature_counter(self):
        """Regression: ``StageBatchTelemetry`` entries were never removed
        when a signature's last plan unregistered, so plan churn leaked one
        entry per dead stage (loop-fallback records included)."""
        telemetry = StageBatchTelemetry()
        telemetry.record("dead", 4, backlog=3)
        telemetry.note_loop_fallback("dead", ["slow-op"])
        telemetry.record("live", 2)
        telemetry.forget("dead")
        assert telemetry.mean_batch_size("dead") == 0.0
        assert telemetry.mean_backlog("dead") == 0.0
        assert "dead" not in telemetry.loop_fallback_stages()
        # Unaffected signatures keep their counters.
        assert telemetry.total_batches == 1
        assert telemetry.mean_batch_size("live") == 2.0
        telemetry.forget("never-seen")  # unknown signatures are a no-op

    def test_scheduler_forget_signature_clears_telemetry(self):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=16)
        plan = StubPlan("tok")
        for index in range(6):
            scheduler.submit(InferenceRequest(f"p{index}", plan, "x"))
        assert scheduler.next_batch(0, timeout=0.0) is not None
        assert scheduler.batching.total_batches == 1
        assert scheduler.batching.mean_backlog("tok") > 0.0
        scheduler.forget_signature("tok")
        assert scheduler.batching.total_batches == 0
        assert scheduler.batching.mean_backlog("tok") == 0.0


def _build_sentiment_plans(corpus, count):
    """``count`` sentiment pipelines sharing trained featurizers.

    The featurization operators (tokenizer, n-gram dictionaries, concat) are
    the *same trained instances* across all pipelines -- the Figure 3 sharing
    structure -- while every pipeline carries its own perturbed classifier
    weights, so plans share featurization stages but not the final stage.
    """
    tokenizer = Tokenizer()
    token_lists = [tokenizer.transform(text) for text in corpus.texts]
    char = CharNgramFeaturizer(ngram_range=(2, 3), max_features=300).fit(token_lists)
    word = WordNgramFeaturizer(ngram_range=(1, 2), max_features=200).fit(token_lists)
    base = LogisticRegressionClassifier(epochs=4)
    pipelines = []
    rng = np.random.default_rng(123)
    for index in range(count):
        pipeline = Pipeline(f"sa-batch-{index}")
        pipeline.add("tokenizer", Tokenizer(), ["input"])
        pipeline.add("char_ngram", char, ["tokenizer"])
        pipeline.add("word_ngram", word, ["tokenizer"])
        pipeline.add(
            "concat",
            ConcatFeaturizer([char.output_size() or 0, word.output_size() or 0]),
            ["char_ngram", "word_ngram"],
        )
        classifier = LogisticRegressionClassifier(epochs=4)
        if index == 0:
            base.fit(
                [
                    ConcatFeaturizer().transform(
                        [char.transform(tokens), word.transform(tokens)]
                    )
                    for tokens in token_lists
                ],
                corpus.labels,
            )
        classifier.weights = base.weights + rng.normal(scale=0.01, size=base.weights.shape)
        classifier.bias = base.bias
        pipeline.add("classifier", classifier, ["concat"])
        pipelines.append(pipeline)
    return pipelines


class TestEndToEndBatching:
    def test_25_plans_share_stage_batches_and_match_inline(self, small_corpus, sa_inputs):
        """25 sentiment plans, batching on: mean observed batch size > 1 and
        results identical to the request-response engine."""
        runtime = PretzelRuntime(
            PretzelConfig(enable_stage_batching=True, max_stage_batch_size=16)
        )
        try:
            pipelines = _build_sentiment_plans(small_corpus, 25)
            plan_ids = [runtime.register(pipeline) for pipeline in pipelines]
            assert runtime.shared_stage_count() >= 1
            record = sa_inputs[0]
            inline = [runtime.predict(plan_id, record) for plan_id in plan_ids]
            # Drive the batch engine deterministically: submit everything,
            # then drain the scheduler single-threaded through one executor.
            requests = [
                runtime.scheduler.submit(
                    InferenceRequest(plan_id, runtime.plan(plan_id), record)
                )
                for plan_id in plan_ids
            ]
            executor = Executor(0, runtime.scheduler, materializer=runtime.materializer)
            while not all(request.done for request in requests):
                batch = runtime.scheduler.next_batch(0, timeout=0.0)
                assert batch is not None, "scheduler starved with requests pending"
                executor.execute_batch(batch)
            assert [request.result for request in requests] == pytest.approx(inline)
            telemetry = runtime.scheduler.batching
            assert telemetry.mean_batch_size() > 1.0
            assert runtime.stats()["stage_batching"]["mean_batch_size"] > 1.0
            # The shared tokenizer stage should have seen large batches.
            rows = telemetry.per_stage_rows()
            assert max(row["max_batch_size"] for row in rows) >= 16
        finally:
            runtime.shutdown()

    def test_plan_churn_does_not_leak_per_signature_state(self, sa_pipeline, sa_inputs):
        """Regression: unregistering a signature's last plan must drop its
        telemetry counters -- they used to accumulate forever under
        register/unregister churn."""
        runtime = PretzelRuntime(PretzelConfig(num_executors=2, enable_stage_batching=True))
        try:
            runtime.register(sa_pipeline, plan_id="first")
            runtime.register(sa_pipeline, plan_id="second")
            runtime.predict_batch("first", sa_inputs[:4])
            assert runtime.scheduler.batching.total_batches > 0
            runtime.unregister("first")
            # "second" still references the shared stages: state survives.
            assert runtime.scheduler.batching.total_batches > 0
            runtime.unregister("second")
            assert runtime.scheduler.batching._batches == {}
            assert runtime.scheduler.batching._backlog_sum == {}
            assert runtime.scheduler.batching._loop_fallbacks == {}
        finally:
            runtime.shutdown()

    def test_batching_disabled_is_byte_identical_to_inline(self, small_corpus, sa_inputs):
        runtime = PretzelRuntime(PretzelConfig(enable_stage_batching=False))
        try:
            pipelines = _build_sentiment_plans(small_corpus, 3)
            plan_ids = [runtime.register(pipeline) for pipeline in pipelines]
            inline = [runtime.predict(plan_id, sa_inputs[0]) for plan_id in plan_ids]
            batched = [
                runtime.predict_batch(plan_id, [sa_inputs[0]])[0] for plan_id in plan_ids
            ]
            # Bit-for-bit equality: with batching off the engine path is the
            # exact scalar path the request-response engine uses.
            assert batched == inline
        finally:
            runtime.shutdown()

    def test_executor_batch_error_isolates_failing_request(self, small_events):
        """A poisoned record fails its own request; batch peers still complete.

        ``ColumnSelector`` rejects non-dict records, so batching a structured
        record with a bare string guarantees the vectorized path raises and
        the executor's per-event fallback isolates the fault.
        """
        from repro.operators import LinearRegressor, MissingValueImputer
        from repro.workloads.events_data import FEATURE_NAMES

        selector = ColumnSelector(FEATURE_NAMES)
        rows = [selector.transform(record) for record in small_events.records]
        imputer = MissingValueImputer().fit(rows)
        imputed = [imputer.transform(row) for row in rows]
        regressor = LinearRegressor().fit(imputed, small_events.labels)
        pipeline = Pipeline("ac-poison")
        pipeline.add("selector", ColumnSelector(FEATURE_NAMES), ["input"])
        pipeline.add("imputer", imputer, ["selector"])
        pipeline.add("regressor", regressor, ["imputer"])

        runtime = PretzelRuntime(
            PretzelConfig(enable_stage_batching=True, max_stage_batch_size=8)
        )
        try:
            plan_id = runtime.register(pipeline)
            plan = runtime.plan(plan_id)
            good = InferenceRequest(plan_id, plan, small_events.records[0])
            bad = InferenceRequest(plan_id, plan, "not-a-record")
            runtime.scheduler.submit(good)
            runtime.scheduler.submit(bad)
            executor = Executor(0, runtime.scheduler, materializer=runtime.materializer)
            while not (good.done and bad.done):
                batch = runtime.scheduler.next_batch(0, timeout=0.0)
                assert batch is not None
                executor.execute_batch(batch)
            assert good.error is None
            assert good.result == pytest.approx(runtime.predict(plan_id, small_events.records[0]))
            assert isinstance(bad.error, TypeError)
            with pytest.raises(TypeError):
                bad.wait(timeout=0.0)
        finally:
            runtime.shutdown()

