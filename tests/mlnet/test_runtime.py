"""Tests for the black-box serving runtime (cold/hot paths, memory accounting)."""

import pytest

from repro.mlnet.runtime import MLNetRuntime, MLNetRuntimeConfig


class TestRegistration:
    def test_load_and_predict(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        prediction = runtime.predict(sa_pipeline.name, sa_inputs[0])
        assert 0.0 <= prediction <= 1.0

    def test_duplicate_name_rejected(self, sa_pipeline):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        with pytest.raises(ValueError):
            runtime.load(sa_pipeline)

    def test_unload(self, sa_pipeline):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        runtime.unload(sa_pipeline.name)
        assert not runtime.is_loaded(sa_pipeline.name)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            MLNetRuntime().predict("missing", "text")


class TestColdHotBehaviour:
    def test_first_prediction_initializes(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        entry = runtime.model(sa_pipeline.name)
        assert not entry.initialized
        runtime.predict(sa_pipeline.name, sa_inputs[0])
        assert entry.initialized
        assert entry.init_seconds > 0

    def test_cold_prediction_slower_than_hot(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        _result, cold = runtime.timed_predict(sa_pipeline.name, sa_inputs[0])
        hot_samples = []
        for _ in range(5):
            _result, hot = runtime.timed_predict(sa_pipeline.name, sa_inputs[0])
            hot_samples.append(hot)
        assert cold > min(hot_samples)

    def test_eager_initialization_option(self, sa_pipeline):
        runtime = MLNetRuntime(MLNetRuntimeConfig(lazy_initialization=False))
        runtime.load(sa_pipeline)
        entry = runtime.model(sa_pipeline.name)
        assert entry.pipeline is not None

    def test_specialization_disabled_still_correct(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime(MLNetRuntimeConfig(enable_specialization=False))
        runtime.load(sa_pipeline)
        expected = sa_pipeline.predict(sa_inputs[0])
        assert runtime.predict(sa_pipeline.name, sa_inputs[0]) == pytest.approx(expected)


class TestCorrectnessAndBatch:
    def test_predictions_match_original_pipeline(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        for text in sa_inputs:
            assert runtime.predict(sa_pipeline.name, text) == pytest.approx(
                sa_pipeline.predict(text)
            )

    def test_predict_batch(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        outputs = runtime.predict_batch(sa_pipeline.name, sa_inputs)
        assert outputs == pytest.approx([sa_pipeline.predict(t) for t in sa_inputs])

    def test_loaded_model_holds_its_own_operators(self, sa_pipeline, sa_inputs):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        prediction = runtime.predict(sa_pipeline.name, sa_inputs[0])
        assert prediction == pytest.approx(sa_pipeline.predict(sa_inputs[0]))
        loaded = runtime.model(sa_pipeline.name).pipeline
        assert (
            loaded.nodes["classifier"].operator is not sa_pipeline.nodes["classifier"].operator
        )


class TestMemoryAccounting:
    def test_memory_grows_linearly_with_models(self, sa_pipeline, sa_pipeline_variant):
        runtime = MLNetRuntime()
        base = runtime.memory_bytes()
        runtime.load(sa_pipeline)
        one = runtime.memory_bytes()
        runtime.load(sa_pipeline_variant)
        two = runtime.memory_bytes()
        assert one > base
        # No sharing: the second (nearly identical) model costs about as much
        # as the first one.
        assert (two - one) > 0.8 * (one - base)

    def test_stats_shape(self, sa_pipeline):
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        stats = runtime.stats()
        assert stats["models"] == 1
        assert stats["memory_bytes"] > 0
