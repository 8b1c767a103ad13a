"""Trace propagation across the socket transport's reconnect/replay path.

The socket transport's reconnect-once retry resends the in-flight frame after
redialing; a worker that already processed that ``msg_id`` replays the cached
reply.  Tracing must follow the same idempotency contract: a replayed frame
carries the same ``trace`` envelope, but the worker must not record its spans
again or re-increment its counters -- otherwise every reconnect would
double-count the request in the flight recorder, the metrics plane and the
trace-derived fig5 breakdown.
"""

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
from repro.serving.control.transport import SocketListener, SocketTransport
from repro.serving.worker import (
    ServingWorker,
    encode_model,
    input_frame_schema,
    listen_and_serve,
)


@pytest.fixture()
def listening_worker():
    """A real listening worker served on a background thread."""
    worker = ServingWorker("worker-replay", config=PretzelConfig())
    listener = SocketListener()
    port = listener.port
    server = threading.Thread(
        target=listen_and_serve, args=(worker, listener), daemon=True
    )
    server.start()
    yield worker, port
    # Tests end with a shutdown frame; give the serve loop a moment to wind
    # down, and only dial a shutdown of our own if it is somehow still up
    # (a failed test that never got that far).
    server.join(timeout=5.0)
    if server.is_alive():
        try:
            transport = SocketTransport.connect("127.0.0.1", port, connect_timeout=1.0)
            transport.send_bytes(serialize_message({"type": "shutdown", "msg_id": 9999}))
            transport.recv_bytes()
            transport.close()
        except (OSError, EOFError):
            pass
        server.join(timeout=10.0)
    assert not server.is_alive()


def _spans_for(trace_id):
    return [
        span
        for span in observability.tracer().dump()
        if span["trace_id"] == trace_id
    ]


def test_replayed_frame_records_no_new_spans_or_counters(
    listening_worker, sa_pipeline, sa_inputs
):
    worker, port = listening_worker
    trace_id = uuid.uuid4().hex[:16]
    client = SocketTransport.connect("127.0.0.1", port, connect_timeout=5.0)
    client.send_bytes(
        serialize_message(
            {
                "type": "register",
                "msg_id": 1,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]

    predict_frame = serialize_message(
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
    client.send_bytes(predict_frame)
    first = deserialize_message(client.recv_bytes())
    assert first["ok"]
    assert first["outputs"] == pytest.approx(
        [sa_pipeline.predict(sa_inputs[0])]
    )

    spans_after_first = _spans_for(trace_id)
    names = sorted(span["name"] for span in spans_after_first)
    # The wire hop and every plan stage were recorded, parented on the
    # cluster-minted ipc span id that rode the envelope.
    assert names.count("worker.receive") == 1
    assert names.count("reply.encode") == 1
    assert names.count("stage.execute") == len(worker.runtime.plan("sa").stages)
    assert all(
        span["parent_span_id"] == "ipc-span-under-test"
        for span in spans_after_first
    )
    served_after_first = worker.served_predictions
    counters_after_first = observability.registry().snapshot()["counters"]
    assert served_after_first == 1

    # The reconnect-once path: the connection drops, the transport redials
    # and resends the identical in-flight frame (same msg_id, same trace).
    client.close()
    retry = SocketTransport.connect("127.0.0.1", port, connect_timeout=5.0)
    retry.send_bytes(predict_frame)
    second = deserialize_message(retry.recv_bytes())
    assert second == first  # replayed, not re-executed

    # Idempotent observability: no new spans, no counter movement.
    assert _spans_for(trace_id) == spans_after_first
    assert worker.served_predictions == served_after_first
    counters_after_replay = observability.registry().snapshot()["counters"]
    for name in (
        "pretzel_worker_predictions_total",
        "pretzel_trace_spans_total",
        "pretzel_scheduler_events_total",
    ):
        assert counters_after_replay.get(name, 0) == counters_after_first.get(name, 0)

    # A fresh msg_id on the same trace id executes (and records) normally.
    retry.send_bytes(
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
    assert deserialize_message(retry.recv_bytes())["ok"]
    assert worker.served_predictions == 2
    assert len(_spans_for(trace_id)) == 2 * len(spans_after_first)

    retry.send_bytes(serialize_message({"type": "shutdown", "msg_id": 4}))
    deserialize_message(retry.recv_bytes())
    retry.close()


def test_untraced_frame_records_no_spans(listening_worker, sa_pipeline, sa_inputs):
    """No ``trace`` envelope means the wire hop stays invisible: zero spans."""
    worker, port = listening_worker
    client = SocketTransport.connect("127.0.0.1", port, connect_timeout=5.0)
    client.send_bytes(
        serialize_message(
            {
                "type": "register",
                "msg_id": 11,
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]
    before = len(observability.tracer().dump())
    client.send_bytes(
        serialize_message(
            {"type": "predict", "msg_id": 12, "plan_id": "sa", "records": sa_inputs[:1]}
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]
    assert len(observability.tracer().dump()) == before
    assert worker.served_predictions == 1
    client.send_bytes(serialize_message({"type": "shutdown", "msg_id": 13}))
    deserialize_message(client.recv_bytes())
    client.close()


def test_replayed_data_plane_frame_is_answered_from_the_reply_cache(
    listening_worker, sa_pipeline, sa_inputs
):
    """The reconnect-once resend of a *frame*: same header, same msg id, so the
    same replay cache answers it -- no second execution, span or count."""
    worker, port = listening_worker
    trace_id = uuid.uuid4().hex[:16]
    client = SocketTransport.connect("127.0.0.1", port, connect_timeout=5.0)
    client.send_bytes(
        serialize_message(
            {
                "type": "register",
                "msg_id": "c0ffee00:0",
                "plan_id": "sa",
                "model_b64": encode_model(sa_pipeline, None),
            }
        )
    )
    assert deserialize_message(client.recv_bytes())["ok"]

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
    first_raw = client.recv_bytes()
    assert first_raw.startswith(REPLY_FRAME_MAGIC)
    first = decode_reply(first_raw)
    assert first["msg_id"] == "c0ffee00:1"
    assert first["outputs"] == pytest.approx([sa_pipeline.predict(sa_inputs[0])])

    spans_after_first = _spans_for(trace_id)
    by_name = {span["name"]: span for span in spans_after_first}
    # the trace context rode the frame header; both wire spans measured the frames
    assert by_name["worker.receive"]["attributes"] == {"bytes": len(frame)}
    assert by_name["reply.encode"]["attributes"] == {"bytes": len(first_raw)}
    assert all(span["parent_span_id"] == "1pc5pan1d0000000" for span in spans_after_first)
    counters_after_first = observability.registry().snapshot()["counters"]
    assert worker.served_predictions == 1

    client.close()
    retry = SocketTransport.connect("127.0.0.1", port, connect_timeout=5.0)
    retry.send_bytes(frame)
    assert retry.recv_bytes() == first_raw  # replayed byte for byte, not re-executed
    assert _spans_for(trace_id) == spans_after_first
    assert worker.served_predictions == 1
    counters_after_replay = observability.registry().snapshot()["counters"]
    for name in (
        "pretzel_worker_predictions_total",
        "pretzel_trace_spans_total",
        "pretzel_scheduler_events_total",
    ):
        assert counters_after_replay.get(name, 0) == counters_after_first.get(name, 0)

    retry.send_bytes(serialize_message({"type": "shutdown", "msg_id": "c0ffee00:2"}))
    deserialize_message(retry.recv_bytes())
    retry.close()
