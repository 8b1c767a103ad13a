"""Client/server communication model shared by every front-end.

The paper's end-to-end experiments (Figures 11 and 14) include the cost of
the HTTP/RPC hop between a client and the serving system: roughly 4 ms extra
for PRETZEL's ASP.Net front-end and 9 ms for Clipper's Redis front-end.  We
do not have those stacks, so the hop is modelled explicitly: requests and
responses are really serialized/deserialized (JSON), and a configurable
latency model adds a per-message base cost plus a bandwidth term.  The added
latency is *accounted*, not slept, so experiments stay fast while the shape
of the end-to-end numbers is preserved.
"""

from __future__ import annotations

import json
import operator
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability.tracing import TRACE_WIRE_BYTES, pack_trace_wire, unpack_trace_wire

__all__ = [
    "NetworkModel",
    "serialize_message",
    "deserialize_message",
    "FrameFormatError",
    "SchemaMismatchError",
    "FrameSchema",
    "frame_schema",
    "encode_predict",
    "decode_predict_frame",
    "encode_reply_frame",
    "decode_reply",
    "frame_payload",
    "frame_length",
    "parse_host_port",
    "PREDICT_FRAME_MAGIC",
    "REPLY_FRAME_MAGIC",
    "BINARY_MAGICS",
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
]


def parse_host_port(address: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` address (the --listen / attach wire syntax).

    One parser for both sides of the socket transport (the worker CLI's
    ``--listen`` argument and ``PretzelCluster(attach=...)``) so address
    quirks cannot drift between them.  Raises ``ValueError`` on anything
    that is not ``host:port`` with a numeric port.
    """
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address {address!r} is not HOST:PORT")
    return host, int(port)


def serialize_message(payload: Any) -> bytes:
    """Encode a request/response payload the way an HTTP front-end would."""
    return json.dumps(payload, default=_default_encoder).encode("utf-8")


def deserialize_message(data: bytes) -> Any:
    """Decode a payload previously produced by :func:`serialize_message`."""
    return json.loads(data.decode("utf-8"))


# Harness-only aliases: ``benchmarks/harness/layers.py`` (the traced replay's
# ``net.*`` rows) still imports these four names, so they stay as the JSON
# envelope and identity row packing until ROADMAP item 2 (vii) drops them.
encode_payload = serialize_message
decode_payload = deserialize_message


def pack_value_batch(values: Sequence[Any]) -> List[Any]:
    return list(values)


def unpack_value_batch(values: Any) -> Any:
    return values


#: big-endian unsigned length prefix used by the stream transports.  Pipes
#: frame messages internally (``Connection.send_bytes``), but a TCP stream has
#: no message boundaries, so the socket transport prefixes every
#: :func:`serialize_message` payload with its byte length.
_FRAME_HEADER = struct.Struct("!I")
FRAME_HEADER_BYTES = _FRAME_HEADER.size
#: sanity ceiling for one framed message; a header above this is a corrupted
#: or misaligned stream, not a legitimate payload.
MAX_FRAME_BYTES = 512 * 1024 * 1024


def frame_payload(payload: bytes) -> bytes:
    """Length-prefix one serialized message for a byte-stream transport."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"payload of {len(payload)}B exceeds MAX_FRAME_BYTES")
    return _FRAME_HEADER.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Decode (and sanity-check) the length prefix of an incoming frame."""
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame header announces {length}B (> {MAX_FRAME_BYTES}B cap); "
            "the stream is corrupted or misaligned"
        )
    return length


# -- data-plane predict frames -----------------------------------------------
#
# The wire has two formats.  The JSON envelope above (:func:`serialize_message`)
# is the *control plane*: register, unregister, ping, stats, traces, metrics
# -- and any predict whose records do not fit a frame, or whose reply is not
# all floats.  A conforming predict and its reply travel on the *data plane*:
# a fixed ``struct`` header followed by raw values, no JSON and no key names
# in either direction.  Both ends derive the plan's input schema from the
# same pipeline at registration (``FlourProgram.input_schema``), so nothing
# is negotiated; a request names its schema only by fingerprint.
#
# Request frame (little-endian, no padding)::
#
#     b"PZF1" | 8s msg prefix | u64 seq | u8 flags | u16 plan_len | u32 n
#             | u16 width | u32 schema fingerprint
#             | [16s trace id | 16s parent span id]     iff flags & TRACED
#             | plan id (utf-8) | u32 crc32 of every byte before it
#             | width > 0:  n * width float64            (rows, schema order)
#             | width == 0: n * u32 byte lengths | utf-8 (text records)
#
# Reply frame::
#
#     b"PZR2" | 8s msg prefix | u64 seq | u32 n | u32 crc32 | n float64
#
# A magic names one layout: a layout change takes a new magic, so a frame in
# an older layout (``PZR1``) is refused instead of misread.
#
# ``msg prefix:seq`` is the cluster's ordinary ``msg_id``, so a decoded frame
# is the very message dict the envelope would have produced and goes through
# the same handler, replay cache and stale-reply discard.  A record conforms
# when it is a dict whose key set equals the schema and whose values are all
# exactly ``float`` (text: exactly ``str``, encodable as UTF-8).  Everything
# else rides the JSON envelope, whose ``repr`` floats and ``NaN``/``Infinity``
# literals round-trip every float value (NaN payload bits aside).

PREDICT_FRAME_MAGIC = b"PZF1"
REPLY_FRAME_MAGIC = b"PZR2"
#: every payload prefix the wire counters report as a binary message
BINARY_MAGICS = (PREDICT_FRAME_MAGIC, REPLY_FRAME_MAGIC)

_REQUEST_HEAD = struct.Struct("<4s8sQBHIHI")
_REPLY_HEAD = struct.Struct("<4s8sQI")
_CRC = struct.Struct("<I")
_FLAG_LATENCY_SENSITIVE = 1
_FLAG_TRACED = 2
_PREDICT_KEYS = 5  # type, msg_id, plan_id, records, latency_sensitive (+ trace)


class FrameFormatError(ValueError):
    """A frame failed to parse: bad magic, header, checksum, length or text."""


class SchemaMismatchError(FrameFormatError):
    """A frame was packed against another schema than the receiver's plan has."""


class FrameSchema:
    """A plan's input schema, compiled into its frame body codec.

    ``columns`` are the named float fields of one record in wire order; the
    empty tuple is a text plan (one string per record).  The schema holds
    references to the caller's own ``str`` objects, never copies, and its row
    codec is a format string for the ``struct`` module's shared cache rather
    than a ``Struct`` of its own: a plan pays a few pointer-sized tuples.
    """

    __slots__ = ("columns", "width", "fingerprint", "_row_format", "_values_of")

    def __init__(self, columns: Tuple[str, ...]):
        self.columns = columns
        self.width = len(columns)
        #: names the schema in a frame header; stable across processes and
        #: hosts (never ``hash()``), so the two ends can be compared
        self.fingerprint = zlib.crc32(
            "\x00".join(columns).encode("utf-8", "surrogatepass"), self.width
        )
        self._row_format = f"<{self.width}d"
        #: one record's values in column order (``KeyError`` on a missing key)
        self._values_of: Optional[Callable[[Dict[str, Any]], Tuple[Any, ...]]] = None
        if self.width == 1:
            self._values_of = lambda row, key=columns[0]: (row[key],)
        elif self.width:
            self._values_of = operator.itemgetter(*columns)

    def _pack(self, records: Sequence[Any]) -> Optional[bytes]:
        """The frame body of ``records``, or None when one does not conform."""
        if not self.width:
            try:
                texts = [record.encode("utf-8") for record in records if type(record) is str]
            except UnicodeEncodeError:  # a lone surrogate: only JSON escapes it
                return None
            if len(texts) != len(records):
                return None
            return struct.pack(f"<{len(texts)}I", *map(len, texts)) + b"".join(texts)
        width, values_of, row_format = self.width, self._values_of, self._row_format
        rows = []
        for record in records:
            if type(record) is not dict or len(record) != width:
                return None
            try:
                values = values_of(record)
            except KeyError:  # as many keys as the schema, but not its keys
                return None
            for value in values:
                if type(value) is not float:
                    return None
            rows.append(struct.pack(row_format, *values))
        return rows[0] if len(rows) == 1 else b"".join(rows)

    def _unpack(self, data: bytes, offset: int, count: int) -> List[Any]:
        """Rebuild ``count`` records from the frame body starting at ``offset``."""
        body = memoryview(data)[offset:]
        if self.width:
            if len(body) != count * self.width * 8:
                raise FrameFormatError(
                    f"frame body is {len(body)}B, {count} rows of {self.width} float64 need "
                    f"{count * self.width * 8}B"
                )
            columns = self.columns
            return [dict(zip(columns, row)) for row in struct.iter_unpack(self._row_format, body)]
        if len(body) < 4 * count:
            raise FrameFormatError("text frame truncated inside its length table")
        lengths = struct.unpack_from(f"<{count}I", body)
        if len(body) != 4 * count + sum(lengths):
            raise FrameFormatError("text frame length table and body size disagree")
        texts = []
        start = 4 * count
        try:
            for length in lengths:
                texts.append(str(body[start : start + length], "utf-8"))
                start += length
        except UnicodeDecodeError as error:
            raise FrameFormatError(f"text frame record is not UTF-8: {error}") from error
        return texts


def frame_schema(fields: Optional[Sequence[str]]) -> Optional[FrameSchema]:
    """Compile a plan's input schema (``FlourProgram.input_schema()``) for the wire.

    ``None`` -- the plan has no schema -- stays ``None``: its predicts ride
    the envelope.  So does a schema wider than the header's ``u16`` width.
    """
    if fields is None or len(fields) > 0xFFFF:
        return None
    return FrameSchema(tuple(fields))


def encode_predict(message: Dict[str, Any], schema: Optional[FrameSchema]) -> bytes:
    """Encode a predict request: a data-plane frame, else the envelope.

    ``message`` is the ordinary predict dict with ``records`` still a plain
    row list.  It becomes a frame when the plan has a ``schema``, every record
    conforms to it and every other field fits the header (a canonical
    ``prefix:seq`` msg id, a ``bool`` flag, a fixed-width trace context);
    otherwise the message travels as the JSON envelope.
    """
    frame = _predict_frame(message, schema) if schema is not None else None
    return frame if frame is not None else serialize_message(message)


def _predict_frame(message: Dict[str, Any], schema: FrameSchema) -> Optional[bytes]:
    msg_id = message.get("msg_id")
    plan_id = message.get("plan_id")
    records = message.get("records")
    latency_sensitive = message.get("latency_sensitive")
    trace = message.get("trace")
    if type(msg_id) is not str or type(plan_id) is not str:
        return None
    try:
        prefix = msg_id[:8].encode("ascii")
        seq = int(msg_id[9:])
        plan = plan_id.encode("utf-8")
    except ValueError:  # incl. UnicodeEncodeError: the envelope's JSON escapes carry it
        return None
    if (
        message.get("type") != "predict"
        or len(message) != _PREDICT_KEYS + (trace is not None)
        or type(latency_sensitive) is not bool
        or msg_id != f"{msg_id[:8]}:{seq}"  # canonical: decodes to the same string
        or len(prefix) != 8
        or seq >> 64
        or len(plan) > 0xFFFF
        or type(records) is not list
        or not 0 < len(records) <= 0xFFFFFFFF
    ):
        return None
    flags = _FLAG_LATENCY_SENSITIVE if latency_sensitive else 0
    trace_bytes = b""
    if trace is not None:
        trace_bytes = pack_trace_wire(trace)
        if trace_bytes is None:
            return None
        flags |= _FLAG_TRACED
    body = schema._pack(records)
    if body is None:
        return None
    head = (
        _REQUEST_HEAD.pack(
            PREDICT_FRAME_MAGIC,
            prefix,
            seq,
            flags,
            len(plan),
            len(records),
            schema.width,
            schema.fingerprint,
        )
        + trace_bytes
        + plan
    )
    return b"".join((head, _CRC.pack(zlib.crc32(head)), body))


def decode_predict_frame(
    data: bytes, schema_of: Callable[[str], Optional[FrameSchema]]
) -> Dict[str, Any]:
    """Decode a request frame into the message dict the envelope would yield.

    ``schema_of(plan_id)`` returns the receiver's compiled schema of that
    plan (raising ``KeyError`` for an unknown plan).  A malformed frame raises
    :class:`FrameFormatError` -- never ``struct.error`` -- and a frame packed
    against a different schema :class:`SchemaMismatchError`, never silently
    shifted columns.  Any error raised once the header has checked out
    carries the request's ``msg_id`` attribute, so the receiver can still
    address its typed reply.
    """
    fixed = _REQUEST_HEAD.size
    if len(data) < fixed + _CRC.size:
        raise FrameFormatError("predict frame truncated inside its header")
    magic, prefix, seq, flags, plan_len, count, width, fingerprint = _REQUEST_HEAD.unpack_from(data)
    if magic != PREDICT_FRAME_MAGIC:
        raise FrameFormatError(f"not a predict frame (magic {magic!r})")
    if flags & ~(_FLAG_LATENCY_SENSITIVE | _FLAG_TRACED):
        raise FrameFormatError(f"predict frame carries unknown flags {flags:#x}")
    plan_start = fixed + (TRACE_WIRE_BYTES if flags & _FLAG_TRACED else 0)
    head_end = plan_start + plan_len
    if len(data) < head_end + _CRC.size:
        raise FrameFormatError("predict frame truncated inside its header")
    if zlib.crc32(memoryview(data)[:head_end]) != _CRC.unpack_from(data, head_end)[0]:
        raise FrameFormatError("predict frame header fails its checksum")
    try:
        msg_id = f"{prefix.decode('ascii')}:{seq}"
        plan_id = str(data[plan_start:head_end], "utf-8")
        trace = unpack_trace_wire(data[fixed:plan_start]) if flags & _FLAG_TRACED else None
    except UnicodeDecodeError as error:
        raise FrameFormatError(f"predict frame header is not text: {error}") from error
    try:
        if not count:
            raise FrameFormatError("predict frame carries no records")
        schema = schema_of(plan_id)
        if schema is None or schema.width != width or schema.fingerprint != fingerprint:
            raise SchemaMismatchError(
                f"frame for plan {plan_id!r} was packed against schema "
                f"{fingerprint:#010x} (width {width}); this end holds "
                + (
                    "no schema for it"
                    if schema is None
                    else f"{schema.fingerprint:#010x} (width {schema.width})"
                )
            )
        message = {
            "plan_id": plan_id,
            "records": schema._unpack(data, head_end + _CRC.size, count),
            "latency_sensitive": bool(flags & _FLAG_LATENCY_SENSITIVE),
            "type": "predict",
            "msg_id": msg_id,
        }
        if trace is not None:
            message["trace"] = trace
        return message
    except Exception as error:
        error.msg_id = msg_id  # type: ignore[attr-defined]
        raise


def encode_reply_frame(request: bytes, reply: Dict[str, Any]) -> Optional[bytes]:
    """The reply frame answering the request frame ``request``, or None.

    Only a successful predict reply whose outputs are a list of exactly
    ``float`` values fits; errors and anything else are answered on the
    envelope.  The msg id is copied from the request's header, so it needs
    no re-parsing.
    """
    outputs = reply.get("outputs")
    if reply.get("ok") is not True or type(outputs) is not list:
        return None
    for value in outputs:
        if type(value) is not float:
            return None
    body = struct.pack(f"<{len(outputs)}d", *outputs)
    prefix, seq = struct.unpack_from("<8sQ", request, 4)
    head = _REPLY_HEAD.pack(REPLY_FRAME_MAGIC, prefix, seq, len(outputs))
    return b"".join((head, _CRC.pack(zlib.crc32(head)), body))


def decode_reply(data: bytes) -> Any:
    """Decode a worker's reply: a reply frame, else JSON with its vectors rebuilt."""
    if not data.startswith(REPLY_FRAME_MAGIC):
        # Only a reply that carries a vector pays for the object hook.
        hook = _decode_vector if _VECTOR_TAG in data else None
        return json.loads(data.decode("utf-8"), object_hook=hook)
    fixed = _REPLY_HEAD.size
    if len(data) < fixed + _CRC.size:
        raise FrameFormatError("reply frame truncated inside its header")
    if zlib.crc32(memoryview(data)[:fixed]) != _CRC.unpack_from(data, fixed)[0]:
        raise FrameFormatError("reply frame header fails its checksum")
    _magic, prefix, seq, count = _REPLY_HEAD.unpack_from(data)
    body = memoryview(data)[fixed + _CRC.size :]
    if len(body) != 8 * count:
        raise FrameFormatError(
            f"reply frame body is {len(body)}B, {count} float64 need {8 * count}B"
        )
    try:
        msg_id = f"{prefix.decode('ascii')}:{seq}"
    except UnicodeDecodeError as error:
        raise FrameFormatError(f"reply frame header is not text: {error}") from error
    return {
        "msg_id": msg_id,
        "ok": True,
        "outputs": list(struct.unpack(f"<{count}d", body)),
    }


#: the key of a vector's JSON form (``repro.operators.vectors.JSON_TAG``)
_VECTOR_TAG = b'"__vector__"'


def _decode_vector(form: Dict[str, Any]) -> Any:
    """A reply's JSON object as decoded, or the vector its ``to_json()`` form names."""
    from repro.operators.vectors import JSON_TAG, vector_from_json

    return vector_from_json(form) if JSON_TAG in form else form


def _default_encoder(value: Any) -> Any:
    """Encode the non-JSON-native values a serving payload may legitimately carry.

    Feature vectors become their tagged ``to_json()`` object, which
    :func:`decode_reply` (and it alone: a request is never rebuilt) turns
    back into an equal vector of the same type.  Numpy arrays and scalars
    become (nested) lists/numbers via ``tolist()``, which round-trips
    through :func:`deserialize_message`.
    Anything else is rejected: silently stringifying an arbitrary object
    would produce a payload that *decodes* fine but no longer equals what
    was sent, and the corruption would only surface far away from the
    serialization call.
    """
    from repro.operators.vectors import Vector

    if isinstance(value, Vector):
        return value.to_json()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    raise TypeError(
        f"payload value of type {type(value).__name__} is not JSON-serializable; "
        "serialize_message only round-trips JSON-native values, vectors and numpy "
        "arrays/scalars"
    )


@dataclass
class NetworkModel:
    """Latency model for one client-server round trip.

    ``round_trip_seconds`` is the fixed protocol cost (connection handling,
    HTTP parsing, queuing in the web server); ``bytes_per_second`` converts
    payload size into transfer time.  Defaults are calibrated so that the
    PRETZEL front-end adds ~4 ms and the Clipper front-end ~9 ms for the
    paper's small payloads (Figure 11).
    """

    round_trip_seconds: float = 0.004
    bytes_per_second: float = 200e6

    def overhead_seconds(self, request_bytes: int, response_bytes: int) -> float:
        transfer = (request_bytes + response_bytes) / self.bytes_per_second
        return self.round_trip_seconds + transfer

    def round_trip(self, request_payload: Any, response_payload: Any) -> Tuple[float, int, int]:
        """Serialize both directions and return (overhead_s, req_bytes, resp_bytes)."""
        request = serialize_message(request_payload)
        response = serialize_message(response_payload)
        return self.overhead_seconds(len(request), len(response)), len(request), len(response)
