"""``predict_batch`` runs the whole call as one columnar group on the caller.

Every stage of the plan executes once over all records -- never split by
``max_stage_batch_size``, never queued, no executor started -- and the
outputs honour the batch-equivalence contract against a loop of ``predict``:
bit-equal for plans built only from exact families, within the reduction
carve-out (``rtol=1e-9``) for plans with matrix products.  No processes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.runtime as runtime_module
from repro.core.config import PretzelConfig
from repro.core.executors import Executor
from repro.core.runtime import PretzelRuntime
from repro.core.scheduler import InferenceRequest
from repro.mlnet.pipeline import Pipeline
from repro.operators import ColumnSelector, MinMaxNormalizer, MissingValueImputer, SparseVector
from repro.operators.trees import DecisionTree
from repro.workloads import build_attendee_family, build_sentiment_family
from repro.workloads.events_data import FEATURE_NAMES, generate_events
from repro.workloads.text_data import generate_reviews

SIZES = (1, 2, 15, 16, 17, 100, 256)


@pytest.fixture(scope="module")
def texts():
    return generate_reviews(n_reviews=256, vocabulary_size=400, mean_length=18, seed=61).texts


@pytest.fixture(scope="module")
def events():
    return generate_events(n_events=256, seed=62).records


@pytest.fixture(scope="module")
def exact_pipeline(small_events):
    """Selector -> imputer -> min-max -> tree: every kernel gathers, compares
    and copies, so the group must be bit-equal to the scalar loop."""
    selector = ColumnSelector(FEATURE_NAMES)
    rows = [selector.transform(record) for record in small_events.records]
    imputer = MissingValueImputer().fit(rows)
    imputed = [imputer.transform(row) for row in rows]
    normalizer = MinMaxNormalizer().fit(imputed)
    tree = DecisionTree(max_depth=4, min_leaf=4, seed=2)
    tree.fit([normalizer.transform(row) for row in imputed], small_events.labels)
    pipeline = Pipeline("exact-small")
    pipeline.add("selector", ColumnSelector(FEATURE_NAMES), ["input"])
    pipeline.add("imputer", imputer, ["selector"])
    pipeline.add("normalizer", normalizer, ["imputer"])
    pipeline.add("tree", tree, ["normalizer"])
    return pipeline


@pytest.fixture()
def runtime():
    instance = PretzelRuntime(PretzelConfig(enable_stage_batching=True))
    yield instance
    instance.shutdown()


def _bits(outputs):
    return np.asarray(outputs, dtype=np.float64).tobytes()


def _close(actual, expected):
    return np.allclose(
        np.asarray(actual, dtype=np.float64),
        np.asarray(expected, dtype=np.float64),
        rtol=1e-9,
        atol=1e-12,
        equal_nan=True,
    )


@pytest.mark.parametrize("family", ["sa", "ac", "exact"])
def test_group_matches_a_predict_loop_at_every_size(
    runtime, family, sa_pipeline, ac_pipeline, exact_pipeline, texts, events
):
    pipeline, records = {
        "sa": (sa_pipeline, texts),
        "ac": (ac_pipeline, events),
        "exact": (exact_pipeline, events),
    }[family]
    assert runtime.config.max_stage_batch_size == 16  # the default cap
    plan_id = runtime.register(pipeline, engine="batch")
    scalar = [runtime.predict(plan_id, record) for record in records]
    for size in SIZES:
        batched = runtime.predict_batch(plan_id, records[:size])
        assert len(batched) == size
        if family == "exact":
            assert _bits(batched) == _bits(scalar[:size]), size
        else:
            assert _close(batched, scalar[:size]), size
    assert not runtime.executor_pool.started


@pytest.mark.parametrize("family", ["sa", "ac"])
def test_group_is_bit_equal_to_the_queued_engine_at_the_same_batch_size(
    family, sa_pipeline, ac_pipeline, texts, events
):
    """Plumbing only: one group per stage runs the same kernels over the same
    records as a scheduler whose cap admits the whole call."""
    pipeline, records = {"sa": (sa_pipeline, texts), "ac": (ac_pipeline, events)}[family]
    records = records[:100]
    config = PretzelConfig(enable_stage_batching=True, max_stage_batch_size=128)
    with PretzelRuntime(config) as grouped, PretzelRuntime(config) as queued:
        group_id = grouped.register(pipeline, engine="batch")
        queue_id = queued.register(pipeline, engine="batch")
        expected = _drain(queued, queue_id, records)
        assert _bits(grouped.predict_batch(group_id, records)) == _bits(expected)


def _drain(runtime, plan_id, records):
    """Serve ``records`` through the scheduler single-threaded (no threads)."""
    plan = runtime.plan(plan_id)
    requests = [
        runtime.scheduler.submit(InferenceRequest(plan_id, plan, record)) for record in records
    ]
    executor = Executor(0, runtime.scheduler, materializer=runtime.materializer)
    while not all(request.done for request in requests):
        executor.execute_batch(runtime.scheduler.next_batch(0, timeout=0.0))
    return [request.wait(0) for request in requests]


def test_batching_off_is_byte_identical_to_the_loop(sa_pipeline, ac_pipeline, texts, events):
    with PretzelRuntime(PretzelConfig(enable_stage_batching=False)) as runtime:
        for pipeline, records in ((sa_pipeline, texts[:40]), (ac_pipeline, events[:40])):
            plan_id = runtime.register(pipeline, engine="batch")
            loop = [runtime.predict(plan_id, record) for record in records]
            assert _bits(runtime.predict_batch(plan_id, records)) == _bits(loop)
        assert runtime.stats()["stage_batching"]["batches"] == 0
        assert not runtime.executor_pool.started


def test_latency_sensitive_call_runs_each_record_alone(runtime, ac_pipeline, events):
    plan_id = runtime.register(ac_pipeline, engine="batch")
    loop = [runtime.predict(plan_id, record) for record in events[:20]]
    outputs = runtime.predict_batch(plan_id, events[:20], latency_sensitive=True)
    assert _bits(outputs) == _bits(loop)
    assert runtime.stats()["stage_batching"]["batches"] == 0


def test_each_stage_is_recorded_as_one_batch_of_n(runtime, sa_pipeline, texts):
    plan_id = runtime.register(sa_pipeline, engine="batch")
    stages = len(runtime.plan(plan_id).stages)
    runtime.predict_batch(plan_id, texts[:100])
    snapshot = runtime.stats()["stage_batching"]
    assert snapshot["batches"] == stages
    assert snapshot["events"] == 100 * stages
    assert snapshot["mean_batch_size"] == 100
    rows = runtime.scheduler.batching.per_stage_rows()
    assert [(row["batches"], row["max_batch_size"]) for row in rows] == [(1, 100)] * stages


def test_empty_call_returns_empty(runtime, sa_pipeline):
    plan_id = runtime.register(sa_pipeline, engine="batch")
    assert runtime.predict_batch(plan_id, []) == []
    assert runtime.stats()["stage_batching"]["batches"] == 0


def test_executors_start_only_for_submit(runtime, sa_pipeline, texts):
    plan_id = runtime.register(sa_pipeline, engine="batch")
    runtime.predict_batch(plan_id, texts[:32])
    assert not runtime.executor_pool.started
    expected = runtime.predict(plan_id, texts[0])
    assert runtime.submit(plan_id, texts[0]).wait(timeout=30.0) == pytest.approx(expected)
    assert runtime.executor_pool.started


def test_kernel_error_raises_the_lowest_failing_records_scalar_error(runtime, ac_pipeline, events):
    """``ColumnSelector`` rejects non-dict records in both paths; the group
    re-runs the stage per record and raises index 5's error, not index 9's."""
    plan_id = runtime.register(ac_pipeline, engine="batch")
    records = list(events[:20])
    records[9] = 42
    records[5] = "not a record"
    with pytest.raises(TypeError) as scalar:
        runtime.predict(plan_id, records[5])
    with pytest.raises(TypeError) as caught:
        runtime.predict_batch(plan_id, records)
    assert str(caught.value) == str(scalar.value)
    # the healthy records still serve, and the failed call started nothing
    assert _bits(runtime.predict_batch(plan_id, records[:5])) == _bits(
        [runtime.predict(plan_id, record) for record in records[:5]]
    )
    assert not runtime.executor_pool.started


@pytest.mark.parametrize("early,late,winner", [(12, 7, 7), (3, 7, 3)])
def test_lowest_index_wins_across_stages(
    runtime, monkeypatch, sa_pipeline, texts, early, late, winner
):
    """A record failing at the last stage still beats a higher-index record
    failing at the first: the error raised is the lowest failing index's,
    whichever stage it failed in -- the order ``wait`` surfaced them in."""
    plan_id = runtime.register(sa_pipeline, engine="batch")
    stages = runtime.plan(plan_id).stages
    assert len(stages) >= 2
    records = list(texts[:20])
    poison = {(id(stages[0]), records[early]): early, (id(stages[-1]), records[late]): late}

    def check(stage, record):
        index = poison.get((id(stage), record))
        if index is not None:
            raise ValueError(f"record {index} poisoned")

    real_batch = runtime_module.execute_plan_stage_columns
    real_scalar = runtime_module.execute_plan_stage

    def batch(stage, records, columns, *args, **kwargs):
        for record in records:
            check(stage, record)
        return real_batch(stage, records, columns, *args, **kwargs)

    def scalar(stage, record, values, materializer=None):
        check(stage, record)
        return real_scalar(stage, record, values, materializer)

    monkeypatch.setattr(runtime_module, "execute_plan_stage_columns", batch)
    monkeypatch.setattr(runtime_module, "execute_plan_stage", scalar)
    with pytest.raises(ValueError, match=f"record {winner} poisoned"):
        runtime.predict_batch(plan_id, records)


@pytest.fixture(scope="module")
def families():
    """30-plan SA and AC families shaped like the benchmark's (smaller corpus)."""
    corpus = generate_reviews(n_reviews=300, vocabulary_size=1500, seed=23)
    return {
        "sa": build_sentiment_family(n_pipelines=30, corpus=corpus, seed=23),
        "ac": build_attendee_family(n_pipelines=30, n_configurations=6, seed=41),
    }


@pytest.mark.parametrize("family", ["sa", "ac"])
def test_group_matches_the_scalar_oracle_on_every_plan_of_a_family(families, family):
    """The benchmark's correctness rule, on every plan: a 100-record group
    (CSR n-gram and tree-leaf columns, segmented margins, CSR-scattering
    Concat) agrees with a loop of ``predict`` within ``rtol=1e-9``."""
    members = families[family].pipelines
    records = families[family].sample_inputs(100)
    with PretzelRuntime(PretzelConfig(enable_stage_batching=True)) as runtime:
        plan_ids = [
            runtime.register(member.pipeline, stats=member.stats, engine="batch")
            for member in members
        ]
        assert len(plan_ids) >= 30
        for plan_id in plan_ids:
            expected = [runtime.predict(plan_id, record) for record in records]
            assert _close(runtime.predict_batch(plan_id, records), expected), plan_id


@pytest.mark.parametrize("family", ["sa", "ac"])
def test_warm_group_builds_no_sparse_vector(families, family, monkeypatch):
    """Sparse batches stay CSR columns from the kernel that emits them to the
    kernel that consumes them: a warm ``predict_batch(100)`` constructs no
    ``SparseVector`` at all."""
    members = families[family].pipelines[:4]
    records = families[family].sample_inputs(100)
    constructed = []
    real_init = SparseVector.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        real_init(self, *args, **kwargs)

    with PretzelRuntime(PretzelConfig(enable_stage_batching=True)) as runtime:
        plan_ids = [
            runtime.register(member.pipeline, stats=member.stats, engine="batch")
            for member in members
        ]
        for plan_id in plan_ids:
            runtime.predict_batch(plan_id, records)
        monkeypatch.setattr(SparseVector, "__init__", counting_init)
        for plan_id in plan_ids:
            assert len(runtime.predict_batch(plan_id, records)) == 100
    assert len(constructed) == 0
