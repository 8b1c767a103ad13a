"""Round-trip regression tests for the wire framing in ``repro.net``."""

import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    BINARY_MAGICS,
    PREDICT_FRAME_MAGIC,
    REPLY_FRAME_MAGIC,
    FrameFormatError,
    SchemaMismatchError,
    decode_predict_frame,
    decode_reply,
    deserialize_message,
    encode_predict,
    encode_reply_frame,
    frame_schema,
    serialize_message,
)
from repro.observability.tracing import pack_trace_wire, unpack_trace_wire


class TestRoundTrip:
    def test_json_native_payloads(self):
        payload = {
            "plan_id": "sa-0",
            "records": ["a review", 1, 2.5, True, None],
            "nested": {"depths": {"low": 0}, "list": [[1], [2, 3]]},
        }
        assert deserialize_message(serialize_message(payload)) == payload

    def test_numpy_arrays_and_scalars_round_trip_as_lists(self):
        payload = {
            "vector": np.arange(4, dtype=np.float64),
            "matrix": np.ones((2, 2), dtype=np.int64),
            "score": np.float64(0.25),
            "count": np.int64(7),
        }
        decoded = deserialize_message(serialize_message(payload))
        assert decoded == {
            "vector": [0.0, 1.0, 2.0, 3.0],
            "matrix": [[1, 1], [1, 1]],
            "score": 0.25,
            "count": 7,
        }

    def test_non_roundtrippable_values_raise_instead_of_stringifying(self):
        """Regression: ``_default_encoder`` used to fall back to ``str(value)``,
        silently producing a payload that decoded fine but no longer equalled
        what was sent."""

        class Opaque:
            pass

        for bad in (Opaque(), {1, 2}, b"raw-bytes", object()):
            with pytest.raises(TypeError):
                serialize_message({"value": bad})

    def test_vectors_round_trip_as_equal_vectors_of_their_type(self):
        """A vector reply (e.g. class scores) has a tagged JSON form the
        decoder turns back into an equal vector: float64-exact, sparse
        structure kept, nested anywhere in the payload."""
        from repro.operators.vectors import DenseVector, SparseVector

        specials = [0.1, 1 / 3, -0.0, 5e-324, 1e308, float("inf")]
        vectors = [
            DenseVector(specials),
            DenseVector([]),
            SparseVector([1, 4, 7], [0.5, 1 / 3, -2.0], size=9),
            SparseVector([], [], size=3),
        ]
        ok = {"ok": True, "msg_id": "a1b2c3d4:42", "worker_id": "w"}
        reply = {**ok, "outputs": vectors, "nested": {"scores": vectors[0]}}
        request = encode_predict(_predict([{"a": 1.0}]), frame_schema(["a"]))
        assert encode_reply_frame(request, reply) is None
        decoded = decode_reply(serialize_message(reply))
        assert decoded == reply
        assert [type(value) for value in decoded["outputs"]] == [type(v) for v in vectors]
        assert [value.hex() for value in decoded["outputs"][0].values] == [
            value.hex() for value in specials
        ]
        assert type(decoded["nested"]["scores"]) is DenseVector

    def test_json_path_still_round_trips_nan_via_python_literals(self):
        """Regression pin for the fallback path: Python's json module emits
        the non-RFC ``NaN``/``Infinity`` literals and parses them back, so a
        heterogeneous batch containing specials keeps round-tripping through
        the JSON encoding (as it did before binary frames existed)."""
        payload = {"records": [float("nan"), float("inf"), float("-inf"), "mixed"]}
        decoded = deserialize_message(serialize_message(payload))
        assert math.isnan(decoded["records"][0])
        assert decoded["records"][1] == float("inf")
        assert decoded["records"][2] == float("-inf")
        assert decoded["records"][3] == "mixed"



# -- data-plane predict frames -------------------------------------------------


def _identical(left, right):
    """Deep equality that also demands equal Python types and float bits."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return struct.pack("<d", left) == struct.pack("<d", right)
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _identical(left[key], right[key]) for key in left
        )
    if isinstance(left, list):
        return len(left) == len(right) and all(map(_identical, left, right))
    return left == right


def _predict(records, plan_id="plan-7-ac", msg_id="a1b2c3d4:42", latency_sensitive=False, trace=None):
    """A predict message exactly as ``PretzelCluster._message`` builds it."""
    message = {
        "plan_id": plan_id,
        "records": records,
        "latency_sensitive": latency_sensitive,
        "type": "predict",
        "msg_id": msg_id,
    }
    if trace is not None:
        message["trace"] = trace
    return message


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan")]),
)
_NAMES = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=()) | st.sampled_from("\ud800\x00"),
    min_size=0,
    max_size=6,
)
_COLUMNS = st.lists(_NAMES, min_size=1, max_size=6, unique=True)
_TEXTS = st.text(
    alphabet=st.characters(codec="utf-8") | st.sampled_from(["\x00", "\U0001f600", "\u0301"]),
    max_size=12,
)
_TRACES = st.one_of(
    st.none(),
    st.builds(
        lambda a, b: {"trace_id": a, "parent_span_id": b, "sampled": True},
        st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
        st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
    ),
)
_MSG_IDS = st.builds(
    lambda prefix, seq: f"{prefix}:{seq}",
    st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@st.composite
def _row_batches(draw):
    """(columns, records): every record holds exactly the columns, in its own order."""
    columns = draw(_COLUMNS)
    records = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        order = draw(st.permutations(columns))
        records.append({key: draw(_FLOATS) for key in order})
    return columns, records


class TestPredictFrames:
    @settings(max_examples=150, deadline=None)
    @given(_row_batches(), _MSG_IDS, st.booleans(), _TRACES, st.text(max_size=12))
    def test_row_frame_decodes_to_the_envelope_message(
        self, batch, msg_id, latency_sensitive, trace, plan_id
    ):
        columns, records = batch
        schema = frame_schema(columns)
        message = _predict(records, plan_id, msg_id, latency_sensitive, trace)
        frame = encode_predict(copy.deepcopy(message), schema)
        assert frame.startswith(PREDICT_FRAME_MAGIC)
        decoded = decode_predict_frame(frame, {plan_id: schema}.__getitem__)
        # the very message the cluster built, every float bit-exact (NaN
        # payloads included, which the JSON envelope would canonicalize)
        assert _identical(decoded, message)
        # the body is the raw float64 rows and nothing else: no key travels
        assert frame.endswith(
            b"".join(struct.pack("<d", record[key]) for record in records for key in columns)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_TEXTS, min_size=1, max_size=5), _MSG_IDS, st.booleans(), _TRACES)
    def test_text_frame_decodes_to_the_envelope_message(
        self, records, msg_id, latency_sensitive, trace
    ):
        schema = frame_schema(())
        message = _predict(records, "plan-0-sa", msg_id, latency_sensitive, trace)
        frame = encode_predict(copy.deepcopy(message), schema)
        assert frame.startswith(PREDICT_FRAME_MAGIC)
        decoded = decode_predict_frame(frame, lambda plan_id: schema)
        assert _identical(decoded, deserialize_message(serialize_message(message)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TEXTS, min_size=1, max_size=4), st.integers(min_value=0, max_value=3))
    def test_lone_surrogate_text_falls_back_to_the_envelope(self, records, position):
        records.insert(min(position, len(records)), "half \ud83d pair")
        message = _predict(records)
        wire = encode_predict(copy.deepcopy(message), frame_schema(()))
        assert wire == serialize_message(message)
        assert _identical(deserialize_message(wire), message)

    @settings(max_examples=200, deadline=None)
    @given(_row_batches(), st.data())
    def test_non_conforming_records_yield_the_json_envelope_bytes(self, batch, data):
        columns, records = batch
        schema = frame_schema(columns)
        victim = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
        key = data.draw(st.sampled_from(columns))
        damage = data.draw(
            st.sampled_from(
                ["int", "bool", "none", "numpy", "nested", "missing", "extra", "renamed", "non-dict", "text", "tuple-batch"]
            )
        )
        if damage == "int":
            records[victim][key] = 3
        elif damage == "bool":
            records[victim][key] = True
        elif damage == "none":
            records[victim][key] = None
        elif damage == "numpy":
            records[victim][key] = np.float64(1.5)
        elif damage == "nested":
            records[victim][key] = [1.0, 2.0]
        elif damage == "missing":
            del records[victim][key]
        elif damage == "extra":
            records[victim]["".join(columns) + "+"] = 1.0
        elif damage == "renamed":
            records[victim]["".join(columns) + "+"] = records[victim].pop(key)
        elif damage == "non-dict":
            records[victim] = [1.0] * len(columns)
        elif damage == "text":
            records[victim] = "a text record among rows"
        else:
            records = tuple(records)
        message = _predict(records)
        expected = serialize_message(message)
        wire = encode_predict(dict(message), schema)
        assert wire == expected
        assert not wire.startswith(PREDICT_FRAME_MAGIC)

    def test_fields_that_do_not_fit_the_header_keep_the_envelope(self):
        schema = frame_schema(["a"])
        good = _predict([{"a": 1.0}])
        assert encode_predict(dict(good), schema).startswith(PREDICT_FRAME_MAGIC)
        assert encode_predict(dict(good), None) == serialize_message(good)
        for change in (
            {"msg_id": 7},
            {"msg_id": "short:1"},
            {"msg_id": "a1b2c3d4:007"},
            {"msg_id": "a1b2c3d4:-1"},
            {"msg_id": "a1b2c3d4:1_0"},
            {"msg_id": f"a1b2c3d4:{2**64}"},
            {"msg_id": "a1b2c3d\u00e9:1"},
            {"latency_sensitive": 1},
            {"plan_id": "\ud800"},
            {"plan_id": "p" * 70000},
            {"records": []},
            {"extra": "field"},
            {"trace": {"trace_id": "not-sixteen", "parent_span_id": "x" * 16, "sampled": True}},
            {"trace": {"trace_id": "a" * 16, "parent_span_id": "b" * 16, "sampled": False}},
        ):
            message = {**good, **change}
            assert encode_predict(dict(message), schema) == serialize_message(message), change

    def test_control_and_fallback_bytes_are_pinned(self):
        """The control plane and every non-conforming predict are the plain
        JSON envelope: the control bytes never changed, and a predict whose
        records do not fit the schema carries its rows as JSON, keys and all."""
        assert (
            serialize_message({"type": "ping", "msg_id": "a1b2c3d4:0"})
            == b'{"type": "ping", "msg_id": "a1b2c3d4:0"}'
        )
        assert serialize_message(
            {"plan_id": "p", "drop_checksums": ["c0"], "type": "unregister", "msg_id": "a1b2c3d4:1"}
        ) == (
            b'{"plan_id": "p", "drop_checksums": ["c0"], "type": "unregister", '
            b'"msg_id": "a1b2c3d4:1"}'
        )
        assert encode_predict(_predict([{"f0": 1}]), frame_schema(["f0"])) == (
            b'{"plan_id": "plan-7-ac", "records": [{"f0": 1}], "latency_sensitive": false, '
            b'"type": "predict", "msg_id": "a1b2c3d4:42"}'
        )
        assert encode_predict(_predict([{"f0": 1.5}, {"f1": 2.5}]), frame_schema(["f0"])) == (
            b'{"plan_id": "plan-7-ac", "records": [{"f0": 1.5}, {"f1": 2.5}], '
            b'"latency_sensitive": false, "type": "predict", "msg_id": "a1b2c3d4:42"}'
        )
        assert encode_predict(_predict([{"f1": 0.5}]), frame_schema(["f0"])) == (
            b'{"plan_id": "plan-7-ac", "records": [{"f1": 0.5}], "latency_sensitive": false, '
            b'"type": "predict", "msg_id": "a1b2c3d4:42"}'
        )

    def test_golden_frame_layout(self):
        rows = encode_predict(
            _predict([{"b": 2.0, "a": 1.0}], plan_id="ac", latency_sensitive=True),
            frame_schema(["a", "b"]),
        )
        assert rows == (
            b"PZF1" b"a1b2c3d4" + (42).to_bytes(8, "little")
            + b"\x01"  # flags: latency_sensitive
            + (2).to_bytes(2, "little")  # plan id length
            + (1).to_bytes(4, "little")  # records
            + (2).to_bytes(2, "little")  # width
            + bytes.fromhex("1fac6c16")  # schema fingerprint: crc32(b"a\\0b", 2)
            + b"ac"
            + bytes.fromhex("9f52347f")  # crc32 of everything above
            + struct.pack("<2d", 1.0, 2.0)
        )
        trace = {"trace_id": "0123456789abcdef", "parent_span_id": "fedcba9876543210", "sampled": True}
        text = encode_predict(_predict(["hi", "\u00e9"], plan_id="sa", trace=trace), frame_schema(()))
        assert text == (
            b"PZF1" b"a1b2c3d4" + (42).to_bytes(8, "little")
            + b"\x02"  # flags: traced
            + (2).to_bytes(2, "little") + (2).to_bytes(4, "little")
            + (0).to_bytes(2, "little")  # width 0: text
            + (0).to_bytes(4, "little")  # the text schema's fingerprint
            + b"0123456789abcdef" b"fedcba9876543210"
            + b"sa"
            + bytes.fromhex("df46bd5e")
            + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
            + b"hi" b"\xc3\xa9"
        )
        reply = encode_reply_frame(
            text, {"outputs": [0.5, -1.0], "msg_id": "a1b2c3d4:42", "ok": True, "worker_id": "w"}
        )
        assert reply == (
            b"PZR2" b"a1b2c3d4" + (42).to_bytes(8, "little")
            + (2).to_bytes(4, "little")
            + bytes.fromhex("9ec69b06")
            + struct.pack("<2d", 0.5, -1.0)
        )
        assert decode_reply(reply) == {
            "msg_id": "a1b2c3d4:42",
            "ok": True,
            "outputs": [0.5, -1.0],
        }

    def test_reply_in_the_old_pzr1_layout_is_refused(self):
        """``PZR1`` carried a u32 after the count; its bytes are never misread."""
        old = (
            b"PZR1" b"a1b2c3d4" + (42).to_bytes(8, "little")
            + (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
            + bytes.fromhex("204c77b5")
            + struct.pack("<2d", 0.5, -1.0)
        )
        with pytest.raises(ValueError):
            decode_reply(old)

    @pytest.mark.parametrize(
        "message, schema",
        [
            (_predict([{"a": 1.0, "b": 2.0}, {"b": 4.0, "a": 3.0}]), frame_schema(["a", "b"])),
            (
                _predict(
                    ["one", "two words"],
                    trace={"trace_id": "0" * 16, "parent_span_id": "f" * 16, "sampled": True},
                ),
                frame_schema(()),
            ),
        ],
    )
    def test_truncation_and_header_corruption_raise_frame_format_error(self, message, schema):
        frame = encode_predict(copy.deepcopy(message), schema)
        lookup = {message["plan_id"]: schema}.__getitem__
        assert decode_predict_frame(frame, lookup) == message
        for cut in range(len(frame)):
            with pytest.raises(FrameFormatError):
                decode_predict_frame(frame[:cut], lookup)
        with pytest.raises(FrameFormatError):
            decode_predict_frame(frame + b"\x00", lookup)
        body = len(schema._pack(message["records"]))
        for position in range(len(frame) - body):  # every header byte, crc included
            for flip in (0x01, 0x10, 0x80, 0xFF):
                corrupted = bytearray(frame)
                corrupted[position] ^= flip
                with pytest.raises(FrameFormatError):
                    decode_predict_frame(bytes(corrupted), lookup)

    def test_reply_frame_truncation_and_corruption(self):
        request = encode_predict(_predict([{"a": 1.0}]), frame_schema(["a"]))
        reply = encode_reply_frame(request, {"outputs": [1.0, 2.0, 3.0], "ok": True})
        assert decode_reply(reply)["outputs"] == [1.0, 2.0, 3.0]
        for cut in range(len(reply)):
            # a cut inside the magic is no frame at all: the envelope decoder's error
            with pytest.raises(FrameFormatError if cut >= 4 else ValueError):
                decode_reply(reply[:cut])
        with pytest.raises(FrameFormatError):
            decode_reply(reply + b"\x00")
        for position in range(4, len(reply) - 24):
            for flip in (0x01, 0x10, 0x80, 0xFF):
                corrupted = bytearray(reply)
                corrupted[position] ^= flip
                with pytest.raises(FrameFormatError):
                    decode_reply(bytes(corrupted))

    def test_reply_frames_carry_only_float_outputs(self):
        request = encode_predict(_predict([{"a": 1.0}]), frame_schema(["a"]))
        ok = {"ok": True, "msg_id": "a1b2c3d4:42", "worker_id": "w"}
        many = [float(index) / 7 for index in range(40)] + [float("nan"), -0.0]
        framed = encode_reply_frame(request, {**ok, "outputs": many})
        assert _identical(decode_reply(framed)["outputs"], many)
        for outputs in ([1], [1.0, None], ["text"], [np.float64(1.0)], [[1.0]], {"k": 1.0}, None):
            assert encode_reply_frame(request, {**ok, "outputs": outputs}) is None
        assert encode_reply_frame(request, {**ok, "outputs": [1.0], "ok": False}) is None

    @settings(max_examples=150, deadline=None)
    @given(_row_batches())
    def test_json_fallback_round_trips_every_float(self, batch):
        """A batch with one extra key rides the JSON envelope, and every float
        -- NaN, +-inf, -0.0 and subnormals included -- decodes to the value
        sent (``float.hex``; only a NaN's payload bits are not kept)."""
        columns, records = batch
        records[0]["".join(columns) + "+"] = -0.0
        wire = encode_predict(_predict(copy.deepcopy(records)), frame_schema(columns))
        assert not wire.startswith(PREDICT_FRAME_MAGIC)
        decoded = deserialize_message(wire)["records"]
        assert [{key: value.hex() for key, value in row.items()} for row in decoded] == [
            {key: value.hex() for key, value in row.items()} for row in records
        ]

    def test_encode_predict_leaves_the_message_alone(self):
        """Neither a frame nor the envelope rewrites the caller's message, so
        a resend encodes the same bytes."""
        for records, schema in (
            ([{"a": 1.0}], frame_schema(["a"])),
            ([{"a": 1.0, "b": 2.0}] * 40, frame_schema(["a"])),
            ((0.5,) * 40, None),
        ):
            message = _predict(records)
            original = copy.deepcopy(message)
            first = encode_predict(message, schema)
            assert message == original and message["records"] is records
            assert encode_predict(message, schema) == first

    def test_non_frame_replies_decode_as_the_json_envelope(self):
        """Errors and outputs that are not all ``float`` have no reply frame;
        their envelope is plain JSON, and arrays ride it as float64-exact
        lists (``tolist()``)."""
        request = encode_predict(_predict([{"a": 1.0}]), frame_schema(["a"]))
        ok = {"ok": True, "msg_id": "a1b2c3d4:42", "worker_id": "w"}
        for reply in (
            {**ok, "ok": False, "outputs": None, "error": "boom", "error_type": "KeyError"},
            {**ok, "outputs": [1, 2]},
            {**ok, "outputs": [[0.5, -0.0], ["label"], None]},
        ):
            assert encode_reply_frame(request, reply) is None
            assert decode_reply(serialize_message(reply)) == reply
        specials = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1 / 3]
        for outputs in (np.array(specials), [np.float64(value) for value in specials]):
            reply = {**ok, "outputs": outputs}
            assert encode_reply_frame(request, reply) is None
            decoded = decode_reply(serialize_message(reply))["outputs"]
            assert all(type(value) is float for value in decoded)
            assert [value.hex() for value in decoded] == [value.hex() for value in specials]

    def test_the_retired_array_envelope_is_no_frame(self):
        """Two formats remain: frames (``PZF1``/``PZR2``) and JSON.  A payload
        in the retired ``PZB1`` array-envelope layout is neither, so it fails
        as JSON instead of being decoded."""
        assert BINARY_MAGICS == (PREDICT_FRAME_MAGIC, REPLY_FRAME_MAGIC)
        envelope = b'{"outputs":"__frame__:0:<f8:1"}'
        retired = (
            b"PZB1" + struct.pack("!I", len(envelope)) + envelope
            + struct.pack("!Q", 8) + struct.pack("<d", 0.5)
        )
        with pytest.raises(ValueError) as caught:
            decode_reply(retired)
        assert not isinstance(caught.value, FrameFormatError)
        with pytest.raises(FrameFormatError):
            decode_predict_frame(retired, lambda plan_id: None)

    def test_schema_mismatch_is_a_typed_error_never_shifted_columns(self):
        packed_with = frame_schema(["a", "b"])
        frame = encode_predict(_predict([{"a": 1.0, "b": 2.0}]), packed_with)
        for held in (frame_schema(["a", "c"]), frame_schema(["b", "a"]), frame_schema(["a"]), frame_schema(()), None):
            with pytest.raises(SchemaMismatchError) as caught:
                decode_predict_frame(frame, lambda plan_id: held)
            assert caught.value.msg_id == "a1b2c3d4:42"  # the reply can still be addressed
        with pytest.raises(KeyError) as unknown:
            decode_predict_frame(frame, {}.__getitem__)
        assert unknown.value.msg_id == "a1b2c3d4:42"
        assert frame_schema(None) is None
        assert frame_schema(["x"] * 70000) is None

    def test_trace_context_fixed_width_form(self):
        wire = {"trace_id": "0123456789abcdef", "parent_span_id": "fedcba9876543210", "sampled": True}
        assert pack_trace_wire(wire) == b"0123456789abcdeffedcba9876543210"
        assert unpack_trace_wire(pack_trace_wire(wire)) == wire
        for bad in (
            {**wire, "sampled": False},
            {**wire, "trace_id": "short"},
            {**wire, "parent_span_id": None},
            {**wire, "parent_span_id": "\u00e9" * 16},
            {**wire, "baggage": 1},
        ):
            assert pack_trace_wire(bad) is None
