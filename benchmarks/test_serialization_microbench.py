"""Serialization microbench: JSON rows vs one columnar binary frame.

Pins the wire-level claim of the columnar data path: for numeric batches of
at least 16 records, shipping the batch as dtype/shape-tagged binary frames
(:func:`repro.net.encode_payload` + :func:`repro.net.pack_value_batch`) is
strictly smaller (asserted) *and* faster to encode+decode (recorded as a
``claim()`` in the report's metrics) than re-encoding it as JSON
``tolist()`` text.  The measured unit is the full per-batch exchange
a ``predict_batch`` performs -- the records request plus the float-outputs
reply -- for both record shapes the serving tier carries (dense vector rows
and the AC workload's 40-feature dict records).  Trials interleave the two
encodings (json, binary, json, ...) so host-speed drift cannot bias one
side.

Bare float *outputs* are also reported alone: their frame only beats JSON
from a few dozen scalars up (constant frame cost vs per-float text cost),
which is why :func:`repro.net.pack_value_batch` keeps scalar batches below
``MIN_SCALAR_FRAME`` on the JSON path.

A second table records (no gate) the predict exchange of the serving tier's
two planes side by side: the envelope (``pack_value_batch`` +
``encode_payload``, what every predict rode before the data plane existed)
against the schema-compiled frame (:func:`repro.net.encode_predict`) for a
single AC record, 100 AC records and one SA text.
"""

import time

from conftest import claim, write_report
from repro.net import (
    MIN_SCALAR_FRAME,
    PREDICT_FRAME_MAGIC,
    REPLY_FRAME_MAGIC,
    decode_payload,
    decode_predict_frame,
    decode_reply,
    deserialize_message,
    encode_payload,
    encode_predict,
    encode_reply_frame,
    frame_schema,
    pack_value_batch,
    serialize_message,
    unpack_value_batch,
)
from repro.telemetry.reporting import ExperimentReport, format_table
from repro.workloads.events_data import FEATURE_NAMES, generate_events
from repro.workloads.text_data import generate_reviews

BATCH_SIZES = [4, 16, 64, 256]
#: sizes the acceptance gate applies to: binary must strictly win from here up
GATE_FROM = 16
TRIALS = 9


def _shapes(n):
    events = generate_events(n_events=n, seed=29)
    outputs = [float(label) for label in events.labels]
    vector_rows = [[float(record[key]) for key in sorted(record)] for record in events.records]
    return {"vector_rows": vector_rows, "dict_records": events.records}, outputs


def _round_trip_json(records, outputs):
    request = serialize_message({"type": "predict", "msg_id": "m:1", "records": records})
    deserialize_message(request)
    reply = serialize_message({"msg_id": "m:1", "ok": True, "outputs": outputs})
    deserialize_message(reply)
    return len(request) + len(reply)


def _round_trip_binary(records, outputs):
    request = encode_payload(
        {"type": "predict", "msg_id": "m:1", "records": pack_value_batch(records)}
    )
    unpack_value_batch(decode_payload(request)["records"])
    reply = encode_payload(
        {"msg_id": "m:1", "ok": True, "outputs": pack_value_batch(outputs)}
    )
    unpack_value_batch(decode_payload(reply)["outputs"])
    return len(request) + len(reply)


def _measure_exchange(records, outputs):
    """Interleaved best-of-N of the full request+reply, both encodings."""
    json_best = binary_best = float("inf")
    json_bytes = binary_bytes = 0
    for _ in range(TRIALS):
        start = time.perf_counter()
        json_bytes = _round_trip_json(records, outputs)
        json_best = min(json_best, time.perf_counter() - start)
        start = time.perf_counter()
        binary_bytes = _round_trip_binary(records, outputs)
        binary_best = min(binary_best, time.perf_counter() - start)
    return json_best, json_bytes, binary_best, binary_bytes


def _predict_message(records):
    return {
        "plan_id": "plan-17-ac-017",
        "records": records,
        "latency_sensitive": False,
        "type": "predict",
        "msg_id": "9f3c2a71:123456",
    }


def _exchange_envelope(records, outputs):
    request = encode_predict(_predict_message(records), None)
    unpack_value_batch(decode_payload(request)["records"])
    reply = encode_payload(
        {"outputs": pack_value_batch(outputs), "msg_id": "9f3c2a71:123456",
         "ok": True, "worker_id": "worker-0"}
    )
    unpack_value_batch(decode_payload(reply)["outputs"])
    return len(request), len(reply)


def _exchange_frame(records, outputs, schema):
    request = encode_predict(_predict_message(records), schema)
    decode_predict_frame(request, lambda plan_id: schema)
    reply = encode_reply_frame(
        request,
        {"outputs": pack_value_batch(outputs), "msg_id": "9f3c2a71:123456",
         "ok": True, "worker_id": "worker-0"},
    )
    decode_reply(reply)
    assert request.startswith(PREDICT_FRAME_MAGIC) and reply.startswith(REPLY_FRAME_MAGIC)
    return len(request), len(reply)


def _frame_rows():
    """The predict exchange on the envelope vs on a data-plane frame."""
    events = generate_events(n_events=100, seed=29)
    outputs = [float(label) for label in events.labels]
    text = generate_reviews(n_reviews=1, vocabulary_size=3000, seed=23).texts[0]
    shapes = [
        ("ac_record", events.records[:1], outputs[:1], frame_schema(FEATURE_NAMES)),
        ("ac_records", events.records, outputs, frame_schema(FEATURE_NAMES)),
        ("sa_text", [text], outputs[:1], frame_schema(())),
    ]
    rows = []
    for name, records, replies, schema in shapes:
        envelope_best = frame_best = float("inf")
        for _ in range(TRIALS * 5):
            start = time.perf_counter()
            envelope_bytes = _exchange_envelope(records, replies)
            envelope_best = min(envelope_best, time.perf_counter() - start)
            start = time.perf_counter()
            frame_bytes = _exchange_frame(records, replies, schema)
            frame_best = min(frame_best, time.perf_counter() - start)
        rows.append(
            {
                "records": name,
                "batch": len(records),
                "envelope_request_bytes": envelope_bytes[0],
                "frame_request_bytes": frame_bytes[0],
                "envelope_reply_bytes": envelope_bytes[1],
                "frame_reply_bytes": frame_bytes[1],
                "envelope_us": envelope_best * 1e6,
                "frame_us": frame_best * 1e6,
            }
        )
    return rows


def test_serialization_microbench():
    rows = []
    for batch_size in BATCH_SIZES:
        shapes, outputs = _shapes(batch_size)
        for shape_name, records in shapes.items():
            if batch_size >= GATE_FROM:
                assert not isinstance(pack_value_batch(records), list), (
                    f"{shape_name} batch={batch_size} must take the binary path"
                )
            json_s, json_b, bin_s, bin_b = _measure_exchange(records, outputs)
            rows.append(
                {
                    "records": shape_name,
                    "batch": batch_size,
                    "json_bytes": json_b,
                    "binary_bytes": bin_b,
                    "bytes_ratio": json_b / bin_b,
                    "json_us": json_s * 1e6,
                    "binary_us": bin_s * 1e6,
                    "speedup": json_s / bin_s,
                }
            )

    report = ExperimentReport(
        "Serialization microbench (JSON rows vs columnar binary frames)",
        "Bytes on wire and encode+decode time for one predict_batch exchange "
        "(records request + float-outputs reply); the binary decode includes "
        "rebuilding the exact row objects JSON would deliver.",
    )
    report.rows = rows
    report.add_note(
        f"interleaved best-of-{TRIALS} trials; gate: binary strictly smaller "
        f"(asserted) and faster (recorded) for every numeric batch >= {GATE_FROM} records; bare "
        f"float outputs below {MIN_SCALAR_FRAME} scalars stay JSON by design "
        "(frame constant cost beats per-float text only past that crossover)"
    )
    frame_rows = _frame_rows()
    gated = [row for row in rows if row["batch"] >= GATE_FROM]
    # > 1.0: binary encode+decode beats JSON; timing is recorded, not asserted
    speedups = {}
    for row in gated:
        speedups.update(claim(f"{row['records']}_{row['batch']}_speedup", row["speedup"], 1.0))
    write_report(
        "serialization_microbench",
        report.render()
        + "\n\n=== Predict exchange: envelope vs data-plane frame (recorded, not gated) ===\n"
        "Request + reply of one predict, encode and decode on both ends; the envelope is "
        "pack_value_batch + encode_payload (JSON, or PZB1 for the 100-record batch), the "
        "frame is the schema-compiled struct layout of repro.net.encode_predict.\n\n"
        + format_table(frame_rows),
        metrics={"predict_exchange": frame_rows, **speedups},
    )

    for row in gated:
        assert row["binary_bytes"] < row["json_bytes"], (
            f"{row['records']} batch={row['batch']}: binary exchange "
            f"({row['binary_bytes']}B) not smaller than JSON ({row['json_bytes']}B)"
        )


def test_binary_decode_reproduces_json_rows_exactly():
    """The two encodings must be observationally identical to the worker."""
    shapes, outputs = _shapes(64)
    shapes["outputs"] = outputs
    for shape_name, batch in shapes.items():
        via_json = deserialize_message(serialize_message({"records": batch}))["records"]
        via_binary = unpack_value_batch(
            decode_payload(encode_payload({"records": pack_value_batch(batch)}))["records"]
        )
        # NaN-bearing dict records defeat ==; compare through the JSON text
        # both row lists render to, which is exact for float64 repr round-trips.
        assert serialize_message(via_binary) == serialize_message(via_json), shape_name
