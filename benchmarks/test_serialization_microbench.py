"""Serialization microbench: the JSON envelope vs the data-plane frames.

The cluster<->worker wire has two formats.  A predict whose records conform
to its plan's input schema travels as a ``PZF1`` request frame and is
answered with a ``PZR2`` reply frame (:func:`repro.net.encode_predict`,
:func:`repro.net.encode_reply_frame`); anything else -- and the same
predict, were it not to conform -- rides the JSON envelope
(:func:`repro.net.serialize_message`).  The measured unit is the full
exchange one ``predict`` / ``predict_batch`` performs: the records request
plus the float-outputs reply, encoded and decoded on both ends, for both
record shapes the serving tier carries (the AC workload's 40-feature dict
records and the SA workload's review texts) at batch sizes from 1 to 256.
Trials interleave the two formats (json, frame, json, ...) so host-speed
drift cannot bias one side.

Gate: the frame exchange is strictly smaller on the wire for every row
(asserted); its encode+decode speedup is recorded as a ``claim()`` in the
report's metrics, not asserted.
"""

import time

from conftest import claim, write_report
from repro.net import (
    PREDICT_FRAME_MAGIC,
    REPLY_FRAME_MAGIC,
    decode_predict_frame,
    decode_reply,
    deserialize_message,
    encode_predict,
    encode_reply_frame,
    frame_schema,
    serialize_message,
)
from repro.telemetry.reporting import ExperimentReport
from repro.workloads.events_data import FEATURE_NAMES, generate_events
from repro.workloads.text_data import generate_reviews

BATCH_SIZES = [1, 4, 16, 64, 256]
TRIALS = 9
MSG_ID = "9f3c2a71:123456"


def _shapes(n):
    """(name, records, outputs, schema) for each record shape at batch ``n``."""
    events = generate_events(n_events=n, seed=29)
    outputs = [float(label) for label in events.labels]
    texts = generate_reviews(n_reviews=n, vocabulary_size=3000, seed=23).texts
    return [
        ("ac_records", events.records, outputs, frame_schema(FEATURE_NAMES)),
        ("sa_texts", texts, outputs, frame_schema(())),
    ]


def _predict_message(records):
    return {
        "plan_id": "plan-17-ac-017",
        "records": records,
        "latency_sensitive": False,
        "type": "predict",
        "msg_id": MSG_ID,
    }


def _reply(outputs):
    return {"outputs": outputs, "msg_id": MSG_ID, "ok": True, "worker_id": "worker-0"}


def _exchange_json(records, outputs, schema):
    request = encode_predict(_predict_message(records), None)
    deserialize_message(request)
    reply = serialize_message(_reply(outputs))
    decode_reply(reply)
    return len(request), len(reply)


def _exchange_frame(records, outputs, schema):
    request = encode_predict(_predict_message(records), schema)
    decode_predict_frame(request, lambda plan_id: schema)
    reply = encode_reply_frame(request, _reply(outputs))
    decode_reply(reply)
    assert request.startswith(PREDICT_FRAME_MAGIC) and reply.startswith(REPLY_FRAME_MAGIC)
    return len(request), len(reply)


def _measure(records, outputs, schema):
    """Interleaved best-of-N of the full request+reply, both formats."""
    json_best = frame_best = float("inf")
    trials = TRIALS * 5 if len(records) == 1 else TRIALS
    for _ in range(trials):
        start = time.perf_counter()
        json_bytes = _exchange_json(records, outputs, schema)
        json_best = min(json_best, time.perf_counter() - start)
        start = time.perf_counter()
        frame_bytes = _exchange_frame(records, outputs, schema)
        frame_best = min(frame_best, time.perf_counter() - start)
    return json_best, json_bytes, frame_best, frame_bytes


def test_serialization_microbench():
    rows = []
    for batch_size in BATCH_SIZES:
        for name, records, outputs, schema in _shapes(batch_size):
            json_s, json_b, frame_s, frame_b = _measure(records, outputs, schema)
            rows.append(
                {
                    "records": name,
                    "batch": batch_size,
                    "json_request_bytes": json_b[0],
                    "frame_request_bytes": frame_b[0],
                    "json_reply_bytes": json_b[1],
                    "frame_reply_bytes": frame_b[1],
                    "bytes_ratio": sum(json_b) / sum(frame_b),
                    "json_us": json_s * 1e6,
                    "frame_us": frame_s * 1e6,
                    "speedup": json_s / frame_s,
                }
            )

    report = ExperimentReport(
        "Serialization microbench (JSON envelope vs PZF1/PZR2 frames)",
        "Bytes on wire and encode+decode time for one predict exchange (records "
        "request + float-outputs reply, both ends); the JSON side is what a "
        "predict whose records do not conform to the plan's schema rides, the "
        "frame side the schema-compiled struct layout of repro.net.encode_predict.",
    )
    report.rows = rows
    report.add_note(
        f"interleaved best-of-{TRIALS} trials (x5 for single records); gate: the frame "
        "exchange strictly smaller (asserted) and faster (recorded) for every row"
    )
    # > 1.0: the frame's encode+decode beats JSON; timing is recorded, not asserted
    speedups = {}
    for row in rows:
        speedups.update(claim(f"{row['records']}_{row['batch']}_speedup", row["speedup"], 1.0))
    write_report("serialization_microbench", report.render(), metrics=speedups)

    for row in rows:
        json_bytes = row["json_request_bytes"] + row["json_reply_bytes"]
        frame_bytes = row["frame_request_bytes"] + row["frame_reply_bytes"]
        assert frame_bytes < json_bytes, (
            f"{row['records']} batch={row['batch']}: frame exchange ({frame_bytes}B) "
            f"not smaller than JSON ({json_bytes}B)"
        )


def test_frame_decode_reproduces_json_rows_exactly():
    """The two formats must be observationally identical to the worker."""
    for name, records, outputs, schema in _shapes(64):
        message = _predict_message(records)
        via_json = deserialize_message(encode_predict(message, None))
        via_frame = decode_predict_frame(encode_predict(message, schema), lambda plan_id: schema)
        # NaN-bearing dict records defeat ==; compare through the JSON text
        # both messages render to, which is exact for float64 repr round-trips.
        assert serialize_message(via_frame["records"]) == serialize_message(
            via_json["records"]
        ), name
        assert {**via_frame, "records": None} == {**via_json, "records": None}, name
        reply = encode_reply_frame(encode_predict(message, schema), _reply(outputs))
        assert decode_reply(reply)["outputs"] == deserialize_message(
            serialize_message(_reply(outputs))
        )["outputs"], name
