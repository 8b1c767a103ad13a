"""The straight-line predict path: front door, one round trip, worker loop.

Deterministic checks only -- no timing asserts.  The front door's cost is
pinned as a count of profiler events (Python and builtin calls) for one
unsampled predict; the channel's contracts (one poll object, typed
timeouts, stale-reply discard) are checked on a bare socketpair; the
worker's straight-line loop must answer a corrupt frame with an addressed,
typed error and keep serving.
"""

import select
import socket
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.config import PretzelConfig
from repro.net import (
    PREDICT_FRAME_MAGIC,
    REPLY_FRAME_MAGIC,
    decode_reply,
    deserialize_message,
    encode_predict,
    encode_reply_frame,
    frame_schema,
    serialize_message,
)
from repro.serving import PretzelCluster, WorkerTimeout
from repro.serving.cluster import _WorkerHandle
from repro.serving.control.transport import SocketTransport
from repro.serving.worker import ServingWorker, _serve, encode_model, input_frame_schema

#: profiler events (``call`` + ``c_call``) one unsampled AC predict may cost
#: the front door; the multi-format dispatch this path replaced made 146
FRONT_DOOR_EVENT_BUDGET = 70


def _config(**overrides):
    defaults = dict(
        num_workers=2,
        placement_replicas=2,
        shm_budget_bytes=0,
        worker_timeout_seconds=60.0,
        trace_sample_rate=1_000_000,  # nothing in these tests is sampled
    )
    defaults.update(overrides)
    return PretzelConfig(**defaults)


def test_an_unsampled_ac_predict_stays_within_its_front_door_call_budget(ac_pipeline, ac_inputs):
    with PretzelCluster(_config()) as cluster:
        plan_id = cluster.register(ac_pipeline)
        for record in ac_inputs[:8]:  # warm both workers and every lazy path
            cluster.predict(plan_id, record)
        events = []

        def profile(frame, event, arg):
            if event == "call" or (event == "c_call" and arg is not sys.setprofile):
                events.append((event, getattr(arg, "__qualname__", frame.f_code.co_name)))

        sys.setprofile(profile)
        try:
            output = cluster.predict(plan_id, ac_inputs[0])
        finally:
            sys.setprofile(None)
        assert output == pytest.approx(ac_pipeline.predict(ac_inputs[0]))
    assert len(events) <= FRONT_DOOR_EVENT_BUDGET, events


def test_one_poll_object_per_worker_handle(monkeypatch, ac_pipeline, ac_inputs):
    built = []
    real_poll = select.poll

    def counting_poll():
        built.append(threading.current_thread().name)
        return real_poll()

    monkeypatch.setattr(select, "poll", counting_poll)
    with PretzelCluster(_config()) as cluster:
        assert len(built) == len(cluster.worker_ids()) == 2
        plan_id = cluster.register(ac_pipeline)
        for record in ac_inputs:
            cluster.predict(plan_id, record)
        cluster.predict_batch(plan_id, ac_inputs)
        cluster.stats()
        assert len(built) == 2


def _bare_handle():
    """A worker handle over a socketpair whose far end the test plays."""
    near, far = map(SocketTransport, socket.socketpair())
    process = SimpleNamespace(is_alive=lambda: True)
    return _WorkerHandle("worker-under-test", process, near), far


def _reply_frame(seq, outputs):
    request = encode_predict(
        {
            "plan_id": "p",
            "records": [{"a": 1.0}],
            "latency_sensitive": False,
            "type": "predict",
            "msg_id": f"c0ffee00:{seq}",
        },
        frame_schema(["a"]),
    )
    return request, encode_reply_frame(request, {"ok": True, "outputs": outputs})


def test_a_stale_reply_ahead_of_the_right_one_is_discarded():
    handle, far = _bare_handle()
    try:
        _stale_request, stale_reply = _reply_frame(1, [-1.0])
        request, reply = _reply_frame(2, [2.5])
        far.send_bytes(stale_reply)  # an older msg id, already on the channel
        far.send_bytes(reply)
        answer = handle.round_trip(request, "c0ffee00:2", "predict", timeout=5.0)
        assert answer == {"msg_id": "c0ffee00:2", "ok": True, "outputs": [2.5]}
        assert far.recv_bytes() == request
        assert handle.bytes_received == len(stale_reply) + len(reply)
    finally:
        handle.close()
        far.close()


def test_a_silent_worker_times_out_typed_and_its_late_reply_is_discarded():
    handle, far = _bare_handle()
    try:
        first, late_reply = _reply_frame(1, [1.0])
        with pytest.raises(WorkerTimeout):
            handle.round_trip(first, "c0ffee00:1", "predict", timeout=0.05)
        second, reply = _reply_frame(2, [2.0])
        far.send_bytes(late_reply)
        far.send_bytes(reply)
        assert handle.round_trip(second, "c0ffee00:2", "predict", timeout=5.0)["outputs"] == [2.0]
    finally:
        handle.close()
        far.close()


def test_a_frame_with_a_corrupt_crc_gets_an_addressed_typed_error(ac_pipeline, ac_inputs):
    worker = ServingWorker("worker-under-test", config=PretzelConfig())
    client, served = map(SocketTransport, socket.socketpair())
    server = threading.Thread(target=_serve, args=(worker, served), daemon=True)
    server.start()
    try:
        client.send_bytes(
            serialize_message(
                {
                    "type": "register",
                    "msg_id": "c0ffee00:0",
                    "plan_id": "ac",
                    "model_b64": encode_model(ac_pipeline, None),
                }
            )
        )
        assert deserialize_message(client.recv_bytes())["ok"]
        schema = input_frame_schema(ac_pipeline)

        def frame(seq):
            return encode_predict(
                {
                    "plan_id": "ac",
                    "records": ac_inputs[:1],
                    "latency_sensitive": False,
                    "type": "predict",
                    "msg_id": f"c0ffee00:{seq}",
                },
                schema,
            )

        corrupt = bytearray(frame(1))
        assert corrupt.startswith(PREDICT_FRAME_MAGIC)
        crc_at = 33 + len("ac")  # the fixed header, then the plan id, then the crc
        corrupt[crc_at] ^= 0xFF
        client.send_bytes(bytes(corrupt))
        refused = deserialize_message(client.recv_bytes())
        assert refused["ok"] is False
        assert refused["error_type"] == "FrameFormatError"
        assert "checksum" in refused["error"]
        assert refused["msg_id"] == "c0ffee00:1"
        # the loop keeps serving the straight line
        client.send_bytes(frame(2))
        raw = client.recv_bytes()
        assert raw.startswith(REPLY_FRAME_MAGIC)
        reply = decode_reply(raw)
        assert reply["msg_id"] == "c0ffee00:2"
        assert reply["outputs"] == pytest.approx([ac_pipeline.predict(ac_inputs[0])])
        assert worker.failed_requests == 1
        assert worker.served_predictions == 1
        client.send_bytes(serialize_message({"type": "shutdown", "msg_id": "c0ffee00:3"}))
        assert deserialize_message(client.recv_bytes())["bye"] is True
        server.join(timeout=10.0)
        assert not server.is_alive()
    finally:
        client.close()
        served.close()
        worker.close()
