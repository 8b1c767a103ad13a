"""Trace propagation through a worker's serve loop, on both wire formats.

A sampled request carries its trace context in the JSON envelope or, fixed
width, in the ``PZF1`` frame header.  The worker must record its wire spans
(``worker.receive``, ``reply.encode``) and every plan stage under the
cluster-minted ipc span id, measure the wire spans in the bytes that really
travelled, and record nothing at all for an unsampled request.
"""

import socket
import threading
import uuid

import pytest

from repro import observability
from repro.core.config import PretzelConfig
from repro.net import (
    PREDICT_FRAME_MAGIC,
    REPLY_FRAME_MAGIC,
    decode_reply,
    deserialize_message,
    encode_predict,
    serialize_message,
)
from repro.serving.control.transport import SocketTransport
from repro.serving.worker import ServingWorker, _serve, encode_model, input_frame_schema


@pytest.fixture()
def serving_worker():
    """A worker serving one end of a socketpair on a background thread."""
    worker = ServingWorker("worker-replay", config=PretzelConfig())
    left, right = socket.socketpair()
    client, served = SocketTransport(left), SocketTransport(right)
    server = threading.Thread(target=_serve, args=(worker, served), daemon=True)
    server.start()
    yield worker, client
    # Tests end with a shutdown message; dial one of our own only if a
    # failed test never got that far.
    server.join(timeout=5.0)
    if server.is_alive():
        try:
            client.send_bytes(serialize_message({"type": "shutdown", "msg_id": 9999}))
            client.recv_bytes()
        except (OSError, EOFError):
            pass
        server.join(timeout=10.0)
    client.close()
    served.close()
    worker.close()
    assert not server.is_alive()


def _spans_for(trace_id):
    return [
        span
        for span in observability.tracer().dump()
        if span["trace_id"] == trace_id
    ]


def _register(client, sa_pipeline, msg_id):
    client.send_bytes(
        serialize_message(
            {
                "type": "register",
                "msg_id": msg_id,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]


def _shut_down(client, msg_id):
    client.send_bytes(serialize_message({"type": "shutdown", "msg_id": msg_id}))
    deserialize_message(client.recv_bytes())


def test_traced_envelope_records_the_worker_spans(serving_worker, sa_pipeline, sa_inputs):
    worker, client = serving_worker
    trace_id = uuid.uuid4().hex[:16]
    _register(client, sa_pipeline, 1)
    client.send_bytes(
        serialize_message(
            {
                "type": "predict",
                "msg_id": 2,
                "plan_id": "sa",
                "records": sa_inputs[:1],
                "trace": {
                    "trace_id": trace_id,
                    "parent_span_id": "ipc-span-under-test",
                    "sampled": True,
                },
            }
        )
    )
    reply = deserialize_message(client.recv_bytes())
    assert reply["ok"]
    assert reply["outputs"] == pytest.approx([sa_pipeline.predict(sa_inputs[0])])

    spans = _spans_for(trace_id)
    names = sorted(span["name"] for span in spans)
    # The wire hop and every plan stage were recorded, parented on the
    # cluster-minted ipc span id that rode the envelope.
    assert names.count("worker.receive") == 1
    assert names.count("reply.encode") == 1
    assert names.count("stage.execute") == len(worker.runtime.plan("sa").stages)
    assert all(span["parent_span_id"] == "ipc-span-under-test" for span in spans)
    assert worker.served_predictions == 1

    # A fresh msg id on the same trace id records a second, equal set.
    client.send_bytes(
        serialize_message(
            {
                "type": "predict",
                "msg_id": 3,
                "plan_id": "sa",
                "records": sa_inputs[:1],
                "trace": {
                    "trace_id": trace_id,
                    "parent_span_id": "second-ipc-span",
                    "sampled": True,
                },
            }
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]
    assert worker.served_predictions == 2
    assert len(_spans_for(trace_id)) == 2 * len(spans)
    _shut_down(client, 4)


def test_untraced_frame_records_no_spans(serving_worker, sa_pipeline, sa_inputs):
    """No trace context means the wire hop stays invisible: zero spans, on
    the envelope and on the straight-line frame path alike."""
    worker, client = serving_worker
    _register(client, sa_pipeline, 11)
    before = len(observability.tracer().dump())
    client.send_bytes(
        serialize_message(
            {"type": "predict", "msg_id": 12, "plan_id": "sa", "records": sa_inputs[:1]}
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]
    frame = encode_predict(
        {
            "plan_id": "sa",
            "records": sa_inputs[:1],
            "latency_sensitive": False,
            "type": "predict",
            "msg_id": "c0ffee00:13",
        },
        input_frame_schema(sa_pipeline),
    )
    assert frame.startswith(PREDICT_FRAME_MAGIC)
    client.send_bytes(frame)
    assert decode_reply(client.recv_bytes())["msg_id"] == "c0ffee00:13"
    assert len(observability.tracer().dump()) == before
    assert worker.served_predictions == 2
    _shut_down(client, 14)


def test_traced_frame_records_the_wire_spans_in_frame_bytes(
    serving_worker, sa_pipeline, sa_inputs
):
    """A sampled frame: the context rides the header, and both wire spans
    measure the frames that travelled, not an envelope."""
    worker, client = serving_worker
    trace_id = uuid.uuid4().hex[:16]
    _register(client, sa_pipeline, "c0ffee00:0")
    frame = encode_predict(
        {
            "plan_id": "sa",
            "records": sa_inputs[:1],
            "latency_sensitive": False,
            "type": "predict",
            "msg_id": "c0ffee00:1",
            "trace": {"trace_id": trace_id, "parent_span_id": "1pc5pan1d0000000", "sampled": True},
        },
        input_frame_schema(sa_pipeline),
    )
    assert frame.startswith(PREDICT_FRAME_MAGIC)
    client.send_bytes(frame)
    raw = client.recv_bytes()
    assert raw.startswith(REPLY_FRAME_MAGIC)
    reply = decode_reply(raw)
    assert reply["msg_id"] == "c0ffee00:1"
    assert reply["outputs"] == pytest.approx([sa_pipeline.predict(sa_inputs[0])])

    spans = _spans_for(trace_id)
    by_name = {span["name"]: span for span in spans}
    assert by_name["worker.receive"]["attributes"] == {"bytes": len(frame)}
    assert by_name["reply.encode"]["attributes"] == {"bytes": len(raw)}
    assert sum(span["name"] == "stage.execute" for span in spans) == len(
        worker.runtime.plan("sa").stages
    )
    assert all(span["parent_span_id"] == "1pc5pan1d0000000" for span in spans)
    assert worker.served_predictions == 1
    _shut_down(client, "c0ffee00:2")
