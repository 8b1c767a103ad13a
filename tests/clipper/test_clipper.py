"""Tests for the containerized (Clipper-style) serving baseline."""

import pytest

from repro.clipper.container import ContainerConfig, ModelContainer
from repro.clipper.frontend import ClipperConfig, ClipperFrontEnd
from repro.net import NetworkModel, deserialize_message, serialize_message


class TestNetworkModel:
    def test_serialization_round_trip(self):
        payload = {"records": ["hello", 1, 2.5]}
        assert deserialize_message(serialize_message(payload)) == {"records": ["hello", 1, 2.5]}

    def test_overhead_includes_base_and_transfer(self):
        model = NetworkModel(round_trip_seconds=0.002, bytes_per_second=1e6)
        overhead = model.overhead_seconds(1000, 1000)
        assert overhead == pytest.approx(0.002 + 0.002)

    def test_round_trip_returns_sizes(self):
        model = NetworkModel()
        overhead, request_bytes, response_bytes = model.round_trip({"a": 1}, {"b": 2})
        assert overhead > 0 and request_bytes > 0 and response_bytes > 0


class TestModelContainer:
    def test_container_serves_predictions(self, sa_pipeline, sa_inputs):
        container = ModelContainer(sa_pipeline)
        outputs, rpc_overhead = container.predict([sa_inputs[0]])
        assert outputs[0] == pytest.approx(sa_pipeline.predict(sa_inputs[0]))
        assert rpc_overhead > 0

    def test_container_memory_includes_overhead(self, sa_pipeline):
        config = ContainerConfig(container_overhead_bytes=1000)
        container = ModelContainer(sa_pipeline, config)
        assert container.memory_bytes() >= 1000 + sa_pipeline.memory_bytes()

    def test_warm_up_initializes(self, sa_pipeline, sa_inputs):
        container = ModelContainer(sa_pipeline)
        assert not container.is_warm()
        container.warm_up(sa_inputs[0])
        assert container.is_warm()

    def test_stats(self, sa_pipeline, sa_inputs):
        container = ModelContainer(sa_pipeline)
        container.predict([sa_inputs[0]])
        stats = container.stats()
        assert stats["requests"] == 1
        assert stats["memory_bytes"] > 0


class TestClipperFrontEnd:
    def test_deploy_and_predict(self, sa_pipeline, sa_inputs):
        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline)
        response = frontend.predict(sa_pipeline.name, [sa_inputs[0]])
        assert response.outputs[0] == pytest.approx(sa_pipeline.predict(sa_inputs[0]))
        assert response.network_seconds >= 0.009
        assert response.end_to_end_seconds == pytest.approx(
            response.prediction_seconds + response.network_seconds
        )

    def test_duplicate_deploy_rejected(self, sa_pipeline):
        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline)
        with pytest.raises(ValueError):
            frontend.deploy(sa_pipeline)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            ClipperFrontEnd().predict("missing", ["x"])

    def test_replication_round_robin(self, sa_pipeline, sa_inputs):
        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline, replicas=2)
        assert frontend.replica_count(sa_pipeline.name) == 2
        for _ in range(4):
            frontend.predict(sa_pipeline.name, [sa_inputs[0]])
        containers = frontend._containers[sa_pipeline.name]
        assert containers[0].requests_served == 2
        assert containers[1].requests_served == 2

    def test_scale_up_and_down(self, sa_pipeline):
        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline)
        assert frontend.scale(sa_pipeline.name, 3, pipeline=sa_pipeline) == 3
        assert frontend.scale(sa_pipeline.name, 1) == 1
        with pytest.raises(ValueError):
            frontend.scale(sa_pipeline.name, 0)

    def test_memory_grows_with_replicas(self, sa_pipeline):
        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline)
        single = frontend.memory_bytes()
        frontend.scale(sa_pipeline.name, 2, pipeline=sa_pipeline)
        assert frontend.memory_bytes() > single

    def test_prediction_cache(self, sa_pipeline, sa_inputs):
        frontend = ClipperFrontEnd(ClipperConfig(enable_cache=True))
        frontend.deploy(sa_pipeline)
        first = frontend.predict(sa_pipeline.name, [sa_inputs[0]])
        second = frontend.predict(sa_pipeline.name, [sa_inputs[0]])
        assert not first.cache_hit and second.cache_hit

    def test_delayed_batching(self, sa_pipeline, sa_inputs):
        frontend = ClipperFrontEnd(ClipperConfig(max_batch_size=3))
        frontend.deploy(sa_pipeline)
        assert frontend.predict_batched(sa_pipeline.name, [sa_inputs[0]]).outputs == []
        assert frontend.predict_batched(sa_pipeline.name, [sa_inputs[1]]).outputs == []
        final = frontend.predict_batched(sa_pipeline.name, [sa_inputs[2]])
        assert len(final.outputs) == 3

    def test_undeploy(self, sa_pipeline):
        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline)
        frontend.undeploy(sa_pipeline.name)
        assert sa_pipeline.name not in frontend.deployed_models()

    def test_containerization_memory_overhead_vs_single_runtime(self, sa_pipeline, sa_pipeline_variant):
        """One container per model must cost more than one shared runtime."""
        from repro.mlnet.runtime import MLNetRuntime

        frontend = ClipperFrontEnd()
        frontend.deploy(sa_pipeline)
        frontend.deploy(sa_pipeline_variant)
        runtime = MLNetRuntime()
        runtime.load(sa_pipeline)
        runtime.load(sa_pipeline_variant)
        assert frontend.memory_bytes() > runtime.memory_bytes()
