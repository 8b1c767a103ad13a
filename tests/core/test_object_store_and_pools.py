"""Tests for the Object Store, LRU cache and materialization."""

import threading

import numpy as np
import pytest

from repro.core.materialization import SubPlanMaterializer
from repro.core.object_store import LruByteCache, ObjectStore
from repro.operators.base import Parameter
from repro.operators.linear import LinearRegressor
from repro.operators.text import WordNgramFeaturizer


class TestObjectStore:
    def test_interning_identical_operators(self):
        store = ObjectStore()
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a", "b"]])
        clone = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4, dictionary=proto.dictionary)
        first = store.intern_operator(proto)
        second = store.intern_operator(clone)
        assert first is second
        assert store.unique_operator_count() == 1
        assert store.operator_refcount(proto) == 2

    def test_different_operators_not_merged(self):
        store = ObjectStore()
        a = LinearRegressor(weights=np.array([1.0]), bias=0.0)
        b = LinearRegressor(weights=np.array([2.0]), bias=0.0)
        assert store.intern_operator(a) is not store.intern_operator(b)
        assert store.unique_operator_count() == 2

    def test_disabled_store_keeps_copies(self):
        store = ObjectStore(enabled=False)
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a"]])
        clone = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4, dictionary=proto.dictionary)
        assert store.intern_operator(clone) is clone
        assert store.memory_bytes() == 0

    def test_parameter_interning(self):
        store = ObjectStore()
        first = store.intern_parameter(Parameter("w", np.array([1.0, 2.0])))
        second = store.intern_parameter(Parameter("w", np.array([1.0, 2.0])))
        assert first is second

    def test_memory_counts_unique_parameters_once(self):
        store = ObjectStore()
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=10).fit([["a", "b", "c"]])
        clone = WordNgramFeaturizer(ngram_range=(1, 1), max_features=10, dictionary=proto.dictionary)
        store.intern_operator(proto)
        before = store.memory_bytes()
        store.intern_operator(clone)
        assert store.memory_bytes() == before

    def test_stats_shape(self):
        stats = ObjectStore().stats()
        assert {"enabled", "unique_operators", "memory_bytes"} <= set(stats)

    def test_hit_miss_counters(self):
        store = ObjectStore()
        store.intern_parameter(Parameter("w", np.array([1.0])))
        store.intern_parameter(Parameter("w", np.array([1.0])))
        store.intern_parameter(Parameter("w", np.array([2.0])))
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a"]])
        clone = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4, dictionary=proto.dictionary)
        store.intern_operator(proto)
        store.intern_operator(clone)
        stats = store.stats()
        # 3 intern_parameter calls (miss, hit, miss) plus the first operator
        # registration interning its own parameters as misses; the clone hits
        # at operator granularity and never reaches the parameter loop.
        assert stats["parameter_hits"] == 1
        assert stats["parameter_misses"] == 2 + len(list(proto.parameters()))
        assert stats["operator_hits"] == 1 and stats["operator_misses"] == 1


class TestObjectStoreRelease:
    def _linear(self, seed):
        rng = np.random.default_rng(seed)
        model = LinearRegressor()
        model.weights = rng.normal(size=16)
        model.bias = 0.5
        return model

    def test_release_decrements_then_drops(self):
        store = ObjectStore()
        first = store.intern_operator(self._linear(1))
        store.intern_operator(self._linear(1))  # second plan, same state
        assert store.operator_refcount(first) == 2
        assert store.release_operator(first) is False  # one plan remains
        assert store.operator_refcount(first) == 1
        assert store.unique_operator_count() == 1
        assert store.release_operator(first) is True  # last plan gone
        assert store.unique_operator_count() == 0
        assert store.unique_parameter_count() == 0
        assert store.memory_bytes() == 0

    def test_release_unknown_operator_is_a_noop(self):
        store = ObjectStore()
        assert store.release_operator(self._linear(2)) is False

    def test_release_disabled_store_is_a_noop(self):
        store = ObjectStore(enabled=False)
        model = store.intern_operator(self._linear(3))
        assert store.release_operator(model) is False

    def test_shared_parameter_survives_until_last_reference(self):
        """A parameter interned directly AND through an operator only
        disappears when both references are gone."""
        store = ObjectStore()
        model = self._linear(4)
        canonical = store.intern_operator(model)
        weights_param = next(
            p for p in canonical.parameters() if isinstance(p.value, np.ndarray)
        )
        # Same (name, checksum) key as the operator's weights -> a dedup hit
        # that adds a second reference to the stored parameter.
        store.intern_parameter(Parameter(weights_param.name, weights_param.value.copy()))
        before = store.unique_parameter_count()
        assert store.release_operator(canonical) is True
        # The direct intern still holds the weights; the bias went with the
        # operator (its only reference).
        assert store.unique_parameter_count() == before - (
            len(canonical.parameters()) - 1
        )
        assert any(p.checksum == weights_param.checksum for p in store.parameters())

def test_runtime_unregister_releases_object_store_holds(sa_pipeline):
    """PretzelRuntime.unregister mirrors registration: the last plan using an
    operator releases its canonical copy (and parameters), the stage catalog
    drops stages no plan uses, and the footprint actually shrinks."""
    from repro.core.config import PretzelConfig
    from repro.core.runtime import PretzelRuntime

    with PretzelRuntime(PretzelConfig()) as runtime:
        baseline = runtime.memory_bytes()
        runtime.register(sa_pipeline, plan_id="a")
        runtime.register(sa_pipeline, plan_id="b")
        registered_memory = runtime.memory_bytes()
        assert registered_memory > baseline
        operators = runtime.object_store.unique_operator_count()
        assert operators > 0
        runtime.unregister("a")
        # Everything is still shared with "b": nothing was dropped.
        assert runtime.object_store.unique_operator_count() == operators
        assert runtime.predict("b", "some text") is not None
        runtime.unregister("b")
        assert runtime.object_store.unique_operator_count() == 0
        assert runtime.object_store.unique_parameter_count() == 0
        assert runtime.unique_stage_count() == 0
        assert len(runtime.compiler.stage_catalog) == 0
        assert runtime.memory_bytes() < registered_memory
        # Unknown ids stay a no-op.
        runtime.unregister("never-registered")


class TestObjectStoreConcurrency:
    def test_concurrent_checksum_identical_registration_dedupes(self):
        """Two threads racing to register checksum-identical parameters must
        converge on one stored copy per key with no torn state."""
        store = ObjectStore()
        values = {f"p{i}": np.full(64, float(i)) for i in range(8)}
        n_threads = 4
        results = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def register(slot):
            barrier.wait()
            for _ in range(50):
                for name, value in values.items():
                    # A fresh copy per call: same checksum, different object.
                    results[slot].append(store.intern_parameter(Parameter(name, value.copy())))

        threads = [threading.Thread(target=register, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.unique_parameter_count() == len(values)
        # Every thread got the same canonical instance for each key.
        by_key = {}
        for returned in results:
            for parameter in returned:
                canonical = by_key.setdefault(parameter.name, parameter)
                assert parameter is canonical
        assert store.memory_bytes() == sum(
            Parameter(name, value).nbytes for name, value in values.items()
        )
        assert store.parameter_hits + store.parameter_misses == n_threads * 50 * len(values)
        assert store.parameter_misses == len(values)

    def test_concurrent_operator_interning_single_canonical_copy(self):
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=8).fit([["a", "b", "c"]])
        store = ObjectStore()
        n_threads = 4
        interned = []
        barrier = threading.Barrier(n_threads)

        def register():
            barrier.wait()
            clone = WordNgramFeaturizer(
                ngram_range=(1, 1), max_features=8, dictionary=proto.dictionary
            )
            interned.append(store.intern_operator(clone))

        threads = [threading.Thread(target=register) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.unique_operator_count() == 1
        assert all(operator is interned[0] for operator in interned)
        assert store.operator_refcount(proto) == n_threads


class TestLruByteCache:
    def test_put_get(self):
        cache = LruByteCache(100)
        cache.put("a", 1, 10)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_respects_budget(self):
        cache = LruByteCache(30)
        cache.put("a", 1, 20)
        cache.put("b", 2, 20)
        assert cache.used_bytes <= 30
        assert cache.get("a") is None  # least recently used got evicted
        assert cache.get("b") == 2

    def test_recently_used_survives(self):
        cache = LruByteCache(40)
        cache.put("a", 1, 20)
        cache.put("b", 2, 20)
        cache.get("a")
        cache.put("c", 3, 20)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_oversized_entry_ignored(self):
        cache = LruByteCache(10)
        cache.put("big", 1, 100)
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            LruByteCache(-1)


class TestMaterializer:
    def _stage(self, sa_pipeline):
        from repro.core.flour import flour_from_pipeline
        from repro.core.oven.compiler import ModelPlanCompiler
        from repro.core.oven.optimizer import OvenOptimizer

        plan = ModelPlanCompiler().compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline).to_transform_graph())
        )
        return plan.stages[0].physical

    def test_only_shared_stages_are_cached(self, sa_pipeline):
        store = ObjectStore()
        materializer = SubPlanMaterializer(store, enabled=True)
        stage = self._stage(sa_pipeline)
        assert not materializer.is_candidate(stage)
        materializer.mark_shared(stage.full_signature)
        assert materializer.is_candidate(stage)

    def test_lookup_after_store(self, sa_pipeline, sa_inputs):
        store = ObjectStore()
        materializer = SubPlanMaterializer(store, enabled=True)
        stage = self._stage(sa_pipeline)
        materializer.mark_shared(stage.full_signature)
        outputs = stage.execute([sa_inputs[0]])
        materializer.store(stage, [sa_inputs[0]], outputs)
        cached = materializer.lookup(stage, [sa_inputs[0]])
        assert cached is not None
        assert len(cached) == len(outputs)

    def test_disabled_materializer_never_caches(self, sa_pipeline, sa_inputs):
        store = ObjectStore()
        materializer = SubPlanMaterializer(store, enabled=False)
        stage = self._stage(sa_pipeline)
        materializer.mark_shared(stage.full_signature)
        materializer.store(stage, [sa_inputs[0]], stage.execute([sa_inputs[0]]))
        assert materializer.lookup(stage, [sa_inputs[0]]) is None

    def test_predictor_stages_never_cached(self, sa_pipeline):
        from repro.core.flour import flour_from_pipeline
        from repro.core.oven.compiler import ModelPlanCompiler
        from repro.core.oven.optimizer import OvenOptimizer

        plan = ModelPlanCompiler().compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline).to_transform_graph())
        )
        scoring_stage = plan.sink_stage().physical
        store = ObjectStore()
        materializer = SubPlanMaterializer(store, enabled=True)
        materializer.mark_shared(scoring_stage.full_signature)
        assert not materializer.is_candidate(scoring_stage)
