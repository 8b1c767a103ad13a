"""Sub-plan materialization with stage batching on.

The materialization cache is keyed per record, so both batched entry points
serve a materializing runtime through the scalar stage: ``predict_batch``
loops the request-response path, and an executor runs each member of a
coalesced ``StageBatch`` as its own event.  Two sibling SA plans share their
featurization stages, so the second plan must hit the cache the first one
filled, and every result must be bit-equal to the scalar loop.  No threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PretzelConfig
from repro.core.executors import Executor
from repro.core.runtime import PretzelRuntime
from repro.core.scheduler import InferenceRequest

CONFIG = PretzelConfig(
    enable_subplan_materialization=True, enable_stage_batching=True, max_stage_batch_size=16
)


def _bits(outputs):
    return np.asarray(outputs, dtype=np.float64).tobytes()


@pytest.fixture()
def siblings(sa_pipeline, sa_pipeline_variant):
    with PretzelRuntime(CONFIG) as runtime:
        first = runtime.register(sa_pipeline, engine="batch")
        second = runtime.register(sa_pipeline_variant, engine="batch")
        assert runtime.shared_stage_count() >= 1
        yield runtime, first, second


@pytest.fixture()
def records(sa_inputs):
    return list(sa_inputs[:20])


def _scalar_loop(pipelines, records):
    with PretzelRuntime(PretzelConfig()) as oracle:
        plan_ids = [oracle.register(pipeline) for pipeline in pipelines]
        return [[oracle.predict(plan_id, record) for record in records] for plan_id in plan_ids]


def _drain(runtime, plan_id, records):
    """Serve ``records`` through the scheduler on one executor, single-threaded;
    returns the results and the largest batch the scheduler formed."""
    plan = runtime.plan(plan_id)
    requests = [
        runtime.scheduler.submit(InferenceRequest(plan_id, plan, record)) for record in records
    ]
    executor = Executor(0, runtime.scheduler, materializer=runtime.materializer)
    largest = 0
    while not all(request.done for request in requests):
        batch = runtime.scheduler.next_batch(0, timeout=0.0)
        assert batch is not None, "scheduler starved with requests pending"
        largest = max(largest, len(batch))
        executor.execute_batch(batch)
    return [request.wait(0) for request in requests], largest


def test_predict_batch_hits_the_cache_and_matches_the_scalar_loop(
    siblings, records, sa_pipeline, sa_pipeline_variant
):
    runtime, first, second = siblings
    expected = _scalar_loop([sa_pipeline, sa_pipeline_variant], records)
    assert _bits(runtime.predict_batch(first, records)) == _bits(expected[0])
    hits = runtime.materializer.stats()["hits"]
    assert _bits(runtime.predict_batch(second, records)) == _bits(expected[1])
    assert runtime.materializer.stats()["hits"] > hits
    assert not runtime.executor_pool.started


def test_submit_backlog_hits_the_cache_and_matches_the_scalar_loop(
    siblings, records, sa_pipeline, sa_pipeline_variant
):
    runtime, first, second = siblings
    expected = _scalar_loop([sa_pipeline, sa_pipeline_variant], records)
    results, largest = _drain(runtime, first, records)
    assert largest > 1, "the backlog never coalesced into a real batch"
    assert _bits(results) == _bits(expected[0])
    hits = runtime.materializer.stats()["hits"]
    results, _largest = _drain(runtime, second, records)
    assert _bits(results) == _bits(expected[1])
    assert runtime.materializer.stats()["hits"] > hits
