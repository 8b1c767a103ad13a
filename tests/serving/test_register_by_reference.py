"""Registration by reference: workers resolve trained values from their Object Store.

A register message pickles every big trained value the worker's store will
intern as its store key; the worker resolves each key to the object it
already holds (no copy, no re-hash) or answers the keys it lacks, and the
front door resends the model once, fully inline.
"""

import collections
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.mlnet.pipeline import Pipeline
from repro.operators import (
    CharNgramFeaturizer,
    ColumnSelector,
    ConcatFeaturizer,
    LogisticRegressionClassifier,
    Tokenizer,
    WordNgramFeaturizer,
    base,
)
from repro.serving import PretzelCluster, WorkerFailedError, WorkerFailure
from repro.serving.worker import ServingWorker, decode_model, encode_model, model_references


def _config(**overrides):
    defaults = dict(
        num_workers=2,
        placement_replicas=2,
        shm_budget_bytes=8 * 1024 * 1024,
        shm_min_parameter_bytes=1024,
        worker_timeout_seconds=60.0,
    )
    defaults.update(overrides)
    return PretzelConfig(**defaults)


def _sa_pipeline(corpus, name, char_features, seed, word_features=200):
    """An SA pipeline with its own (content-equal, refit) vocabularies and
    its own classifier weights."""
    tokenizer = Tokenizer()
    token_lists = [tokenizer.transform(text) for text in corpus.texts]
    char = CharNgramFeaturizer(ngram_range=(2, 3), max_features=char_features).fit(token_lists)
    word = WordNgramFeaturizer(ngram_range=(1, 2), max_features=word_features).fit(token_lists)
    pipeline = Pipeline(name)
    pipeline.add("tokenizer", Tokenizer(), ["input"])
    pipeline.add("char_ngram", char, ["tokenizer"])
    pipeline.add("word_ngram", word, ["tokenizer"])
    pipeline.add(
        "concat",
        ConcatFeaturizer([char.output_size() or 0, word.output_size() or 0]),
        ["char_ngram", "word_ngram"],
    )
    pipeline.add("classifier", LogisticRegressionClassifier(epochs=2), ["concat"])
    pipeline.fit(corpus.texts, corpus.labels)
    classifier = pipeline.nodes["classifier"].operator
    rng = np.random.default_rng(seed)
    classifier.weights = classifier.weights + rng.normal(scale=0.01, size=classifier.weights.shape)
    return pipeline


@pytest.fixture(scope="module")
def sa_plans(small_corpus):
    """Six SA plans in two groups of three; each group has its own char and
    word vocabularies, so a plan's vocabularies are all new or all held."""
    return [
        _sa_pipeline(
            small_corpus,
            f"sa-ref-{index}",
            300 if index < 3 else 250,
            seed=index,
            word_features=200 if index < 3 else 150,
        )
        for index in range(6)
    ]


def _vocabularies(pipelines):
    return {
        parameter.checksum
        for pipeline in pipelines
        for parameter in pipeline.parameters()
        if parameter.name.endswith(".dictionary")
    }


def _hexes(values):
    return [value.hex() for value in values]


def _expected(pipelines, inputs):
    with PretzelRuntime(PretzelConfig()) as runtime:
        ids = [runtime.register(pipeline) for pipeline in pipelines]
        return [[runtime.predict(plan_id, record) for record in inputs] for plan_id in ids]


@pytest.fixture()
def hash_log(tmp_path, monkeypatch):
    """Log ``pid checksum`` for every vocabulary hashed, by this process and
    by the workers it forks afterwards (they inherit the patch)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("counting worker-side hashes needs forked workers")
    path = tmp_path / "hashed.log"
    path.touch()
    checksum_of = base._checksum_of

    def logging_checksum_of(value):
        checksum = checksum_of(value)
        if isinstance(value, dict) and len(value) >= 100:
            with open(path, "a") as log:
                log.write(f"{os.getpid()} {checksum}\n")
        return checksum

    monkeypatch.setattr(base, "_checksum_of", logging_checksum_of)
    return path


def test_each_worker_hashes_and_unpickles_each_vocabulary_once(hash_log, sa_plans, sa_inputs):
    vocabularies = _vocabularies(sa_plans)
    assert len(vocabularies) == 4
    with PretzelCluster(_config()) as cluster:
        for index, pipeline in enumerate(sa_plans):
            cluster.register(pipeline, plan_id=f"p{index}")
        outputs = [[cluster.predict(f"p{index}", text) for text in sa_inputs] for index in range(6)]
        stats = cluster.stats()
        pids = {worker_id: handle.process.pid for worker_id, handle in cluster._workers.items()}
    expected = _expected(sa_plans, sa_inputs)
    assert [_hexes(row) for row in outputs] == [_hexes(row) for row in expected]
    hashed = collections.defaultdict(collections.Counter)
    for line in hash_log.read_text().splitlines():
        pid, checksum = line.split()
        hashed[int(pid)][checksum] += 1
    for worker_id, pid in pids.items():
        # Each distinct vocabulary arrived inline (and was hashed) exactly
        # once; all 12 - 4 other occurrences resolved from the store.
        assert hashed[pid] == {checksum: 1 for checksum in vocabularies}, worker_id
        assert stats["workers"][worker_id]["registration"] == {"by_reference": 8, "missing": 4}
    # Per worker: plans 0 and 3 each lacked both their vocabularies.
    assert stats["inline_resends"] == 2 * len(pids)


def test_values_oven_rewrites_never_go_by_reference(small_corpus):
    """The classifier's weights are big enough to reference but Oven splits
    them per concat branch, so no worker's store ever holds them: only the
    vocabularies go by reference, and they resolve to the stored objects."""
    pipeline = _sa_pipeline(small_corpus, "sa-wide", 400, seed=1)
    weights = pipeline.nodes["classifier"].operator.weights
    assert weights.nbytes >= base._PARAMETER_MEMO_MIN_BYTES
    with PretzelRuntime(PretzelConfig()) as runtime:
        runtime.register(pipeline)
        store = runtime.object_store
        references = model_references(pipeline, store.parameters())
        assert all(parameter.value is not weights for parameter in references)
        assert sorted(parameter.key for parameter in references) == sorted(
            parameter.key
            for parameter in pipeline.parameters()
            if parameter.name.endswith(".dictionary")
        )
        copy, _stats = decode_model(
            encode_model(pipeline, None, references),
            lambda key: store.stored_parameter(key).value,
        )
        vocabularies = [p for p in copy.parameters() if p.name.endswith(".dictionary")]
        assert len(vocabularies) == 2
        for parameter in vocabularies:
            assert parameter.value is store.stored_parameter(parameter.key).value
        assert copy.nodes["classifier"].operator.weights is not weights


def test_an_ac_plan_ships_no_references(ac_pipeline, ac_inputs):
    with PretzelCluster(_config()) as cluster:
        compiled = cluster._compiled_parameters(ac_pipeline, None)
        assert model_references(ac_pipeline, compiled) == []
        cluster.register(ac_pipeline, plan_id="ac-a")
        cluster.register(ac_pipeline, plan_id="ac-b")
        stats = cluster.stats()
        outputs = [cluster.predict("ac-b", record) for record in ac_inputs]
    assert stats["inline_resends"] == 0
    for entry in stats["workers"].values():
        assert entry["registration"] == {"by_reference": 0, "missing": 0}
    assert _hexes(outputs) == _hexes(_expected([ac_pipeline], ac_inputs)[0])


def test_a_worker_lacking_a_reference_registers_nothing(sa_pipeline):
    with PretzelRuntime(PretzelConfig()) as runtime:
        runtime.register(sa_pipeline)
        references = model_references(sa_pipeline, runtime.object_store.parameters())
    assert len(references) == 2
    worker = ServingWorker("fresh", config=PretzelConfig())
    try:
        reply = worker.handle(
            {
                "type": "register",
                "msg_id": 1,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None, references),
            }
        )
        assert reply["ok"] is True
        assert sorted(reply["missing"]) == sorted(parameter.key for parameter in references)
        assert worker.runtime.plan_ids() == []
        assert worker._schemas == {}
        store = worker.runtime.object_store
        assert store.unique_parameter_count() == 0
        assert store.unique_operator_count() == 0
        assert store.memory_bytes() == 0
    finally:
        worker.close()


def test_a_released_vocabulary_costs_exactly_one_inline_resend(
    sa_pipeline, sa_pipeline_variant, sa_inputs
):
    """Plan A's vocabularies leave the worker with A; plan B, which shares
    them, then misses once and is served bit-equal."""
    with PretzelCluster(_config(num_workers=1, placement_replicas=1)) as cluster:
        cluster.register(sa_pipeline, plan_id="a")
        assert cluster.stats()["inline_resends"] == 1  # a fresh worker
        cluster.unregister("a")
        cluster.register(sa_pipeline_variant, plan_id="b")
        stats = cluster.stats()
        outputs = [cluster.predict("b", text) for text in sa_inputs]
    assert stats["inline_resends"] == 2
    (worker,) = stats["workers"].values()
    assert worker["registration"] == {"by_reference": 0, "missing": 4}
    assert _hexes(outputs) == _hexes(_expected([sa_pipeline_variant], sa_inputs)[0])


def test_failover_rehomes_onto_a_worker_that_never_saw_the_vocabulary(sa_pipeline, sa_inputs):
    config = _config(num_workers=3, placement_replicas=1, heartbeat_interval_seconds=0.2)
    with PretzelCluster(config) as cluster:
        cluster.register(sa_pipeline, plan_id="solo")
        (victim,) = cluster.placement("solo")
        # Retained for re-homing, and fully inline: it decodes with no store.
        decode_model(cluster._plans["solo"]["model_b64"])
        cluster._workers[victim].process.kill()
        deadline = time.time() + 60.0
        while True:
            try:
                outputs = [cluster.predict("solo", text) for text in sa_inputs]
                break
            except WorkerFailedError:
                assert time.time() < deadline
                time.sleep(0.01)
        (host,) = cluster.placement("solo")
        stats = cluster.stats()
    assert host != victim
    # The survivor held nothing: it took the inline payload, no reference.
    assert stats["workers"][host]["registration"] == {"by_reference": 0, "missing": 0}
    assert stats["control_plane"]["plans_failed_over"] == 1
    assert _hexes(outputs) == _hexes(_expected([sa_pipeline], sa_inputs)[0])


def test_a_worker_dying_mid_registration_still_frees_the_exclusive_slabs(
    monkeypatch, sa_pipeline, sa_pipeline_variant
):
    """The variant's vocabularies go by reference (the keeper holds them);
    its second placed worker dies before its register, and the rollback
    frees the variant's exclusive slabs."""
    with PretzelCluster(_config()) as cluster:
        cluster.register(sa_pipeline, plan_id="keeper")
        arena_before = cluster.arena.stats()
        survivor, victim = cluster.router.place("x")
        register_on = cluster._register_on

        def dying_register_on(handle, *args):
            if handle.worker_id == victim:
                handle.process.kill()
                handle.process.join(timeout=10.0)
            return register_on(handle, *args)

        monkeypatch.setattr(cluster, "_register_on", dying_register_on)
        with pytest.raises((WorkerFailure, WorkerFailedError)):
            cluster.register(sa_pipeline_variant, plan_id="x")
        arena_after = cluster.arena.stats()
        assert arena_after["allocations"] > arena_before["allocations"]
        assert arena_after["frees"] == arena_after["allocations"] - arena_before["allocations"]
        assert arena_after["used_bytes"] == arena_before["used_bytes"]
        assert "x" not in cluster.lifecycle.plans()
        assert "x" not in cluster.plan_ids()
        survived = cluster.stats()["workers"][survivor]
        assert survived["registration"]["by_reference"] == 2
        assert survived["stats"]["plans"] == 1  # the keeper alone


def test_a_value_parameters_builds_afresh_is_never_sent_as_a_reference():
    """A wide ColumnSelector's config dict is big, survives compile under the
    same key and so qualifies -- but ``parameters()`` builds it anew, the
    pickled graph never holds it, and no reference may stand in for another
    object.  The plan registered twice on one worker serves bit-equal."""
    columns = [f"feature_{index:04d}" for index in range(300)]
    rows = np.random.default_rng(3).normal(size=(50, len(columns)))
    records = [dict(zip(columns, map(float, row))) for row in rows]
    pipeline = Pipeline("wide-selector")
    pipeline.add("selector", ColumnSelector(columns), ["input"])
    pipeline.add("classifier", LogisticRegressionClassifier(epochs=2), ["selector"])
    pipeline.fit(records, (rows[:, 0] > 0).astype(int))
    with PretzelRuntime(PretzelConfig()) as runtime:
        runtime.register(pipeline)
        references = model_references(pipeline, runtime.object_store.parameters())
    assert [parameter.name for parameter in references] == ["selector.columns"]
    requested = []
    copy, _stats = decode_model(encode_model(pipeline, None, references), requested.append)
    assert requested == []
    assert copy.nodes["selector"].operator.columns == columns
    with PretzelCluster(_config(num_workers=1, placement_replicas=1)) as cluster:
        cluster.register(pipeline, plan_id="a")
        cluster.register(pipeline, plan_id="b")
        outputs = [[cluster.predict(plan_id, record) for record in records[:8]] for plan_id in "ab"]
        stats = cluster.stats()
    (worker,) = stats["workers"].values()
    assert worker["registration"] == {"by_reference": 0, "missing": 0}
    assert stats["inline_resends"] == 0
    expected = _hexes(_expected([pipeline], records[:8])[0])
    assert [_hexes(row) for row in outputs] == [expected, expected]
