"""Tests for the serving worker's message handlers, driven in process."""

import threading

import numpy as np
import pytest

from repro import observability
from repro.core.config import PretzelConfig
from repro.mlnet.pipeline import Pipeline
from repro.net import (
    PREDICT_FRAME_MAGIC,
    REPLY_FRAME_MAGIC,
    decode_reply,
    deserialize_message,
    encode_predict,
    frame_schema,
    serialize_message,
)
from repro.operators.featurizers import ColumnSelector
from repro.operators.linear import LinearRegressor
from repro.serving.control.transport import Transport
from repro.serving.shm_store import SharedMemoryArena
from repro.serving.worker import (
    ServingWorker,
    _serve,
    decode_model,
    encode_model,
    input_frame_schema,
)


@pytest.fixture()
def worker():
    served = ServingWorker("worker-test", config=PretzelConfig())
    yield served
    served.close()


def _wire(message):
    """Run a message through the JSON envelope both ways."""
    return deserialize_message(serialize_message(message))


def _outputs(reply):
    """A predict reply's outputs as the cluster reads them off the envelope."""
    return _wire(reply)["outputs"]


class TestHandlers:
    def test_ping(self, worker):
        reply = worker.handle(_wire({"type": "ping", "msg_id": 1}))
        assert reply == {
            "pong": True,
            "msg_id": 1,
            "ok": True,
            "worker_id": "worker-test",
        }

    def test_register_then_predict(self, worker, sa_pipeline, sa_inputs):
        reply = worker.handle(
            {
                "type": "register",
                "msg_id": 2,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
        assert reply["ok"] and reply["plan_id"] == "sa"
        assert reply["memory_bytes"] > 0
        predict = worker.handle(
            _wire({"type": "predict", "msg_id": 3, "plan_id": "sa", "records": sa_inputs[:3]})
        )
        assert predict["ok"]
        assert len(_outputs(predict)) == 3
        assert set(predict) == {"outputs", "msg_id", "ok", "worker_id"}
        expected = [sa_pipeline.predict(text) for text in sa_inputs[:3]]
        assert _outputs(predict) == pytest.approx(expected)
        assert worker.served_predictions == 3

    def test_batch_engine_predict_runs_on_the_handler_thread(self, worker, sa_pipeline, sa_inputs):
        """A multi-record predict on a batch-engine plan goes through
        ``predict_batch``: outputs equal the scalar loop, the reply carries
        only the outputs, and no executor thread starts."""
        reply = worker.handle(
            {
                "type": "register",
                "msg_id": 2,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
                "engine": "batch",
            }
        )
        assert reply["ok"]
        threads = threading.active_count()
        predict = worker.handle(
            _wire({"type": "predict", "msg_id": 3, "plan_id": "sa", "records": sa_inputs[:4]})
        )
        assert set(predict) == {"outputs", "msg_id", "ok", "worker_id"}
        expected = [sa_pipeline.predict(text) for text in sa_inputs[:4]]
        assert _outputs(predict) == pytest.approx(expected)
        assert threading.active_count() == threads

    def test_unregister_then_predict_fails(self, worker, sa_pipeline, sa_inputs):
        worker.handle(
            {
                "type": "register",
                "msg_id": 10,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
        reply = worker.handle({"type": "unregister", "msg_id": 11, "plan_id": "sa"})
        assert reply["ok"] and reply["unregistered"]
        predict = worker.handle(
            {"type": "predict", "msg_id": 12, "plan_id": "sa", "records": sa_inputs[:1]}
        )
        assert predict["ok"] is False and predict["error_type"] == "KeyError"

    def test_memory_probe(self, worker):
        reply = worker.handle({"type": "memory", "msg_id": 13})
        assert reply["ok"] and reply["memory_bytes"] > 0

    def test_unknown_message_type_is_reported_not_raised(self, worker):
        reply = worker.handle({"type": "explode", "msg_id": 4})
        assert reply["ok"] is False
        assert reply["error_type"] == "ValueError"
        assert "explode" in reply["error"]
        assert worker.failed_requests == 1

    def test_predict_unregistered_plan_reports_keyerror(self, worker):
        reply = worker.handle({"type": "predict", "msg_id": 5, "plan_id": "nope", "records": [1]})
        assert reply["ok"] is False
        assert reply["error_type"] == "KeyError"

    def test_stats_carry_object_store_counters(self, worker, sa_pipeline):
        worker.handle(
            {
                "type": "register",
                "msg_id": 6,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
        reply = worker.handle(_wire({"type": "stats", "msg_id": 7}))
        assert reply["ok"]
        object_store = reply["stats"]["object_store"]
        for key in (
            "parameter_hits",
            "parameter_misses",
            "operator_hits",
            "operator_misses",
            "materialization_evictions",
        ):
            assert key in object_store
        assert reply["arena"] is None

    def test_model_codec_round_trip(self, sa_pipeline, sa_inputs):
        pipeline, stats = decode_model(encode_model(sa_pipeline, {"k": None}))
        assert stats == {"k": None}
        assert pipeline.predict(sa_inputs[0]) == pytest.approx(sa_pipeline.predict(sa_inputs[0]))


def _compiled_array_refs(pipeline, arena, min_bytes=1024):
    """Mirror the cluster's harvest: post-compilation array parameters.

    Oven's rewrites (linear push-through) replace the raw model weights with
    new arrays, so only post-compile checksums match what a worker's Object
    Store interns.
    """
    from repro.core.flour import FlourContext, flour_from_pipeline
    from repro.core.object_store import ObjectStore
    from repro.core.oven.compiler import ModelPlanCompiler
    from repro.core.oven.optimizer import OvenOptimizer

    store = ObjectStore(enabled=True)
    program = flour_from_pipeline(pipeline, context=FlourContext(object_store=store))
    ModelPlanCompiler(object_store=store).compile(
        OvenOptimizer().optimize(program.to_transform_graph())
    )
    refs = {}
    for parameter in store.parameters():
        if (
            isinstance(parameter.value, np.ndarray)
            and not parameter.value.dtype.hasobject
            and parameter.nbytes >= min_bytes
        ):
            refs[parameter.checksum] = arena.put_array(parameter.checksum, parameter.value).to_dict()
    return refs


class TestArenaBackedWorker:
    def test_register_adopts_shared_arrays(self, sa_pipeline, sa_inputs):
        with SharedMemoryArena(budget_bytes=4 * 1024 * 1024) as arena:
            refs = _compiled_array_refs(sa_pipeline, arena)
            assert refs  # the split linear weights are big enough to share
            worker = ServingWorker("worker-arena", arena_segment=arena.name)
            try:
                reply = worker.handle(
                    {
                        "type": "register",
                        "msg_id": 1,
                        "plan_id": "sa",
                        "model_b64": encode_model(sa_pipeline, None),
                        "arena_refs": refs,
                    }
                )
                assert reply["ok"]
                # Predictions through the shared views match the private model.
                predict = worker.handle(
                    {"type": "predict", "msg_id": 2, "plan_id": "sa", "records": sa_inputs[:2]}
                )
                expected = [sa_pipeline.predict(text) for text in sa_inputs[:2]]
                assert _outputs(predict) == pytest.approx(expected)
                stats = worker.handle({"type": "stats", "msg_id": 3})
                # The canonical operators were rebound onto arena views when
                # the store interned them (adopt_operator), and the adopted
                # parameters moved out of the worker's private accounting.
                assert stats["arena"]["rebound_arrays"] >= 1
                object_store = stats["stats"]["object_store"]
                assert object_store["parameter_backing"]["adopted_parameters"] >= 1
                assert object_store["shared_parameter_bytes"] > 0
                assert np.isfinite(stats["memory_bytes"])
            finally:
                worker.close()


class _ScriptedTransport(Transport):
    """A fake channel: hands the serve loop a script of payloads, keeps the replies."""

    def __init__(self, payloads):
        self.incoming = list(payloads)
        self.sent = []

    def send_bytes(self, data):
        self.sent.append(data)

    def recv_bytes(self):
        if not self.incoming:
            raise EOFError
        return self.incoming.pop(0)

    def poll(self, timeout=0.0):
        return bool(self.incoming)

    def close(self):
        pass


def _register(worker, plan_id, pipeline):
    reply = worker.handle(
        {
            "type": "register",
            "msg_id": f"register-{plan_id}",
            "plan_id": plan_id,
            "model_b64": encode_model(pipeline, None),
        }
    )
    assert reply["ok"], reply
    return input_frame_schema(pipeline)


def _frame(plan_id, records, schema, seq=1, trace=None):
    message = {
        "plan_id": plan_id,
        "records": records,
        "latency_sensitive": False,
        "type": "predict",
        "msg_id": f"a1b2c3d4:{seq}",
    }
    if trace is not None:
        message["trace"] = trace
    frame = encode_predict(message, schema)
    assert frame.startswith(PREDICT_FRAME_MAGIC)
    return frame


def _selector_pipeline(name, columns):
    """A two-node row pipeline whose output names which columns it read."""
    pipeline = Pipeline(name)
    pipeline.add("selector", ColumnSelector(columns), ["input"])
    model = LinearRegressor()
    model.weights = np.array([10.0 ** position for position in range(len(columns))])
    model.bias = 0.0
    pipeline.add("model", model, ["selector"])
    return pipeline


class TestServeLoopSurvivesAnyPayload:
    def test_malformed_payloads_get_typed_replies_and_the_loop_keeps_serving(self, worker):
        """Regression: the payload decode ran outside any ``try`` -- each of
        these payloads ended the serve loop, i.e. the process hosting every
        plan, and the cluster failed over.  ``PZB1`` names a retired array
        envelope: it is no frame, so it fails as JSON."""
        transport = _ScriptedTransport(
            [
                b"PZB1\x00\x00",
                b"[]",
                b"not json",
                PREDICT_FRAME_MAGIC + b"\x00" * 3,
                serialize_message({"type": "ping", "msg_id": 7}),
            ]
        )
        assert _serve(worker, transport) == "eof"
        replies = [deserialize_message(data) for data in transport.sent]
        assert [reply["error_type"] for reply in replies[:4]] == [
            "JSONDecodeError",
            "TypeError",
            "JSONDecodeError",
            "FrameFormatError",
        ]
        for reply in replies[:4]:
            assert reply["ok"] is False and reply["msg_id"] is None
            assert reply["worker_id"] == "worker-test"
        assert replies[4] == {
            "pong": True,
            "msg_id": 7,
            "ok": True,
            "worker_id": "worker-test",
        }
        assert worker.failed_requests == 4
        counters = observability.registry().snapshot()["counters"]
        assert counters["pretzel_worker_failed_total"] >= 4


class TestPredictFrames:
    def test_frames_go_through_the_one_predict_handler(self, worker, ac_pipeline, ac_inputs, sa_pipeline, sa_inputs):
        ac_schema = _register(worker, "ac", ac_pipeline)
        sa_schema = _register(worker, "sa", sa_pipeline)
        assert ac_schema.width == 40 and sa_schema.width == 0
        transport = _ScriptedTransport(
            [
                _frame("ac", ac_inputs[:1], ac_schema, seq=1),
                _frame("ac", ac_inputs, ac_schema, seq=2),
                _frame("sa", sa_inputs[:3], sa_schema, seq=3),
            ]
        )
        _serve(worker, transport)
        assert all(data.startswith(REPLY_FRAME_MAGIC) for data in transport.sent)
        replies = [decode_reply(data) for data in transport.sent]
        assert [reply["msg_id"] for reply in replies] == ["a1b2c3d4:1", "a1b2c3d4:2", "a1b2c3d4:3"]
        # bit-equal to the same predicts on the envelope, through the same handler
        for reply, (plan_id, records) in zip(
            replies, [("ac", ac_inputs[:1]), ("ac", ac_inputs), ("sa", sa_inputs[:3])]
        ):
            envelope = worker.handle(
                _wire({"type": "predict", "msg_id": 9, "plan_id": plan_id, "records": records})
            )
            assert reply["outputs"] == _outputs(envelope)
            assert all(type(value) is float for value in reply["outputs"])
        assert worker.served_predictions == 2 * (1 + len(ac_inputs) + 3)

    def test_frame_for_an_unregistered_plan_is_the_envelopes_keyerror(self, worker, ac_inputs):
        schema = frame_schema([f"f{index}" for index in range(40)])
        transport = _ScriptedTransport([_frame("gone", ac_inputs[:1], schema, seq=5)])
        _serve(worker, transport)
        (reply,) = [deserialize_message(data) for data in transport.sent]
        # the error type the cluster's demotion-race retry keys on, addressed to the request
        assert reply["ok"] is False and reply["error_type"] == "KeyError"
        assert reply["msg_id"] == "a1b2c3d4:5"
        assert "'gone' is not registered" in reply["error"]

    def test_stale_schema_cannot_serve_a_reregistered_plan(self, worker):
        """Unregister -> re-register of one plan id with other columns: a frame
        packed against the old schema is refused by fingerprint, never decoded
        into shifted columns."""
        old = _register(worker, "p", _selector_pipeline("old", ["a", "b"]))
        record = {"a": 1.0, "b": 2.0}
        stale_frame = _frame("p", [record], old, seq=1)
        assert worker.handle({"type": "unregister", "msg_id": 2, "plan_id": "p"})["ok"]
        new = _register(worker, "p", _selector_pipeline("new", ["a", "c"]))
        assert (old.width, old.columns) == (new.width, ("a", "b"))
        assert old.fingerprint != new.fingerprint
        transport = _ScriptedTransport(
            [stale_frame, _frame("p", [{"a": 1.0, "c": 3.0}], new, seq=3)]
        )
        _serve(worker, transport)
        refused = deserialize_message(transport.sent[0])
        assert refused["ok"] is False and refused["error_type"] == "SchemaMismatchError"
        assert refused["msg_id"] == "a1b2c3d4:1"
        assert decode_reply(transport.sent[1])["outputs"] == [31.0]
        # while unregistered the plan has no schema at all
        assert worker.handle({"type": "unregister", "msg_id": 4, "plan_id": "p"})["ok"]
        transport = _ScriptedTransport([_frame("p", [{"a": 1.0, "c": 3.0}], new, seq=5)])
        _serve(worker, transport)
        assert deserialize_message(transport.sent[0])["error_type"] == "KeyError"

    def test_an_envelope_predict_is_answered_on_the_envelope(self, worker):
        """A batch with one non-conforming record rides the JSON envelope
        (the request is no frame) and its reply is JSON too, every float --
        NaN and +-inf included -- the runtime's own."""
        schema = _register(worker, "p", _selector_pipeline("lin", ["a", "b"]))
        records = [
            {"a": float("nan"), "b": 1.0, "extra": 0.0},
            {"a": float("inf"), "b": -0.0},
            {"a": 0.1, "b": float("-inf")},
        ]
        request = encode_predict(
            {
                "plan_id": "p",
                "records": records,
                "latency_sensitive": False,
                "type": "predict",
                "msg_id": "a1b2c3d4:8",
            },
            schema,
        )
        assert not request.startswith(PREDICT_FRAME_MAGIC)
        transport = _ScriptedTransport([request])
        _serve(worker, transport)
        (raw,) = transport.sent
        assert not raw.startswith(REPLY_FRAME_MAGIC)
        reply = deserialize_message(raw)
        assert reply["ok"] is True and reply["msg_id"] == "a1b2c3d4:8"
        oracle = [worker.runtime.predict("p", record) for record in records]
        assert [value.hex() for value in reply["outputs"]] == [value.hex() for value in oracle]
        assert [value.hex() for value in oracle] == ["nan", "inf", "-inf"]

    def test_a_repeated_frame_is_served_again(self, worker, ac_pipeline, ac_inputs):
        """The loop keeps no reply cache: each delivery of a frame is a
        predict of its own, answered alike."""
        schema = _register(worker, "ac", ac_pipeline)
        frame = _frame("ac", ac_inputs[:2], schema, seq=11)
        transport = _ScriptedTransport([frame, frame])
        _serve(worker, transport)
        assert transport.sent[0] == transport.sent[1]
        assert transport.sent[0].startswith(REPLY_FRAME_MAGIC)
        assert worker.served_predictions == 4

    def test_non_float_outputs_answer_a_frame_on_the_envelope(self, worker):
        """A plan whose sink emits a vector (class scores), which no reply
        frame carries, is answered on the envelope, addressed to the frame's
        msg id, with a vector equal to the one process's and of its type."""
        from repro.core.runtime import PretzelRuntime
        from repro.operators.trees import TreeEnsembleClassifier
        from repro.operators.vectors import DenseVector

        rng = np.random.default_rng(5)
        rows = rng.normal(size=(40, 2))
        classifier = TreeEnsembleClassifier(n_classes=2, max_depth=2).fit(
            list(rows), (rows[:, 0] > 0).astype(int)
        )
        pipeline = Pipeline("class-scores")
        pipeline.add("selector", ColumnSelector(["a", "b"]), ["input"])
        pipeline.add("classifier", classifier, ["selector"])
        schema = _register(worker, "scores", pipeline)
        transport = _ScriptedTransport([_frame("scores", [{"a": 0.5, "b": -1.0}], schema)])
        _serve(worker, transport)
        reply = decode_reply(transport.sent[0])
        assert reply["ok"] is True
        assert reply["msg_id"] == "a1b2c3d4:1"
        with PretzelRuntime(PretzelConfig()) as runtime:
            expected = runtime.predict(runtime.register(pipeline), {"a": 0.5, "b": -1.0})
        (output,) = reply["outputs"]
        assert type(output) is DenseVector and type(expected) is DenseVector
        assert output == expected
