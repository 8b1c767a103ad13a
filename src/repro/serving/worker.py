"""A serving worker: one process hosting a full PretzelRuntime.

Each worker owns a complete white-box runtime -- Object Store, stage
batching, reservations, telemetry -- and serves its cluster
over one :class:`~repro.serving.control.transport.SocketTransport`: its end
of the ``socketpair()`` the cluster created before forking it.  The serve
loop (:func:`_serve`) only touches the Transport interface (``send_bytes``
/ ``recv_bytes`` / ``poll`` / ``close``), so tests drive it over any fake
channel.  The wire has two formats (see :mod:`repro.net`):

* the *data plane* carries the predicts whose records conform to their
  plan's input schema -- derived at registration, on both ends, from the
  same pipeline -- as fixed-layout ``PZF1`` frames with no JSON and no key
  names.  The loop takes them down a straight line: the frame unpacks into
  ``(plan_id, records, flags, trace)`` (:func:`repro.net.unpack_predict_frame`),
  :meth:`ServingWorker.predict` serves them and the outputs go back as a
  ``PZR2`` reply frame (:func:`repro.net.encode_reply_frame`), or on the
  envelope when they are not all floats;
* the *control plane* is the JSON envelope of
  :func:`repro.net.serialize_message`: every control message and every
  predict whose records do not conform.  An envelope message is dispatched
  by :meth:`ServingWorker.handle`, and its predict reaches the same
  :meth:`ServingWorker.predict`.

Pickled model payloads travel base64-encoded inside the envelope, and by
reference where they can: each big trained value the worker's Object Store
already holds (a shared n-gram vocabulary) is pickled as its store key, and
the worker resolves that key to the very object it holds -- no copy, no
re-hash (:func:`model_references`, :meth:`ServingWorker._handle_register`).
A key the store lacks is answered as missing, and the model is resent fully
inline.

Parameter sharing survives the process boundary: when the cluster runs a
:class:`~repro.serving.shm_store.SharedMemoryArena`, the worker attaches an
:class:`~repro.serving.shm_store.ArenaClient` and plugs it into its runtime
as the Object Store's parameter backing.  Register messages carry the
(checksum -> slab) table for the plan's shared parameters; the worker rebinds
the unpickled operators' weight arrays onto read-only shared views *before*
registration, so the private copies produced by unpickling are dropped and
N workers map one copy of each deduplicated weight.

Wire protocol (all requests carry ``msg_id``; every reply echoes it):

=============  =========================================================
``type``       payload
=============  =========================================================
``ping``       -> ``{"pong": true}`` (the control plane's heartbeat)
``register``   ``plan_id``, ``model_b64`` (pickled ``(pipeline, stats)``,
               big values as Object Store keys or inline), ``engine``,
               ``arena_refs`` -> registration summary; or, when some key
               is not in the store, ``{"missing": [keys]}`` and nothing
               is registered (the sender resends the model fully inline)
``unregister`` ``plan_id``, optional ``drop_checksums`` -> teardown ack
               (full plan lifecycle: runtime teardown releases the Object
               Store's operator/parameter holds, and the listed arena refs
               are forgotten because the owner is about to free the slabs)
``predict``    ``plan_id``, ``records``, ``latency_sensitive``, optional
               ``trace`` (a :meth:`TraceContext.to_wire` dict riding the
               envelope or, fixed-width, the frame header) ->
               ``{"outputs": [...]}``; a request frame is
               answered with a reply frame when the outputs are floats
``stats``      -> ``{"stats": runtime.stats(), ...}``
``memory``     -> ``{"memory_bytes": int}`` (lightweight footprint probe)
``traces``     optional ``drain`` -> ``{"spans": [...]}`` (harvest this
               process's span flight recorder)
``metrics``    -> ``{"metrics": registry snapshot}`` (merged by the cluster
               into the unified metrics view)
``shutdown``   -> ack, then the process exits cleanly
=============  =========================================================

Failures are replies, not crashes: any handler exception -- and any payload
that does not even decode into a message -- is reported as
``{"ok": false, "error": ..., "error_type": ...}`` and the loop keeps
serving, so one bad request cannot take a shard down.
"""

from __future__ import annotations

import base64
import io
import pickle
import socket
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import observability
from repro.core.config import PretzelConfig
from repro.core.flour import flour_from_pipeline
from repro.core.runtime import PretzelRuntime
from repro.net import (
    FLAG_LATENCY_SENSITIVE,
    PREDICT_FRAME_MAGIC,
    FrameSchema,
    deserialize_message,
    encode_reply_frame,
    frame_schema,
    serialize_message,
    unpack_predict_frame,
)
from repro.operators.base import _PARAMETER_MEMO_MIN_BYTES, Parameter, known_parameters
from repro.serving.control.transport import SocketTransport, Transport
from repro.serving.shm_store import ArenaClient, ArenaRef

__all__ = [
    "ServingWorker",
    "worker_main",
    "encode_model",
    "decode_model",
    "model_references",
    "input_frame_schema",
]


class _ReferencingPickler(pickle.Pickler):
    """Pickles each listed value as its Object Store key, not its contents."""

    def __init__(self, file: Any, references: Sequence[Parameter]):
        super().__init__(file)
        # Keyed by identity.  ``references`` holds every listed value alive
        # for the whole dump, so no object the pickler meets can reuse the
        # address of one -- not even a value ``parameters()`` built as a
        # temporary, which the pickled graph then simply never contains.
        self._keys = {id(parameter.value): parameter.key for parameter in references}

    def persistent_id(self, obj: Any) -> Optional[str]:
        return self._keys.get(id(obj))


class _ResolvingUnpickler(pickle.Unpickler):
    """Resolves each Object Store key through ``resolve`` (None: a miss)."""

    def __init__(self, file: Any, resolve: Optional[Callable[[str], Any]]):
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, pid: Any) -> Any:
        if self._resolve is None:
            raise pickle.UnpicklingError(f"payload references {pid!r} but nothing resolves it")
        return self._resolve(pid)


def encode_model(
    pipeline: Any,
    stats: Optional[Dict[str, Any]],
    references: Sequence[Parameter] = (),
) -> str:
    """Pickle a model (+ its transform stats) into a JSON-safe string.

    Each value of ``references`` (:func:`model_references`), which the
    receiving worker's Object Store should already hold, travels as its
    store key alone.  Without references the payload is fully inline and
    is plain ``pickle.dumps``: a Python ``persistent_id`` runs once per
    pickled object, which made an inline SA model (its vocabularies' every
    string) 5x slower to encode.
    """
    if not references:
        return base64.b64encode(pickle.dumps((pipeline, stats))).decode("ascii")
    buffer = io.BytesIO()
    _ReferencingPickler(buffer, references).dump((pipeline, stats))
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def decode_model(blob: str, resolve: Optional[Callable[[str], Any]] = None) -> Any:
    """Unpickle :func:`encode_model`'s payload, each reference through ``resolve``."""
    data = base64.b64decode(blob.encode("ascii"))
    return _ResolvingUnpickler(io.BytesIO(data), resolve).load()


def model_references(pipeline: Any, compiled: Iterable[Parameter]) -> List[Parameter]:
    """The trained values of ``pipeline`` a worker can resolve by reference.

    ``compiled`` is the pipeline's parameter set after Oven's rewrites --
    exactly what each hosting worker's Object Store interns.  A value goes
    by reference when it is at least ``_PARAMETER_MEMO_MIN_BYTES`` big and
    its key is in that set: a value Oven rewrites (the SA linear weights)
    never reaches a store, so referencing it would miss on every plan.
    Returns the parameters, for :func:`encode_model`.
    """
    keys = {
        parameter.key for parameter in compiled if parameter.nbytes >= _PARAMETER_MEMO_MIN_BYTES
    }
    if not keys:
        # No pipeline parameter can qualify; skip ``parameters()``, which
        # re-hashes every small value (0.6 ms for an AC plan).
        return []
    return [
        parameter
        for parameter in pipeline.parameters()
        if parameter.nbytes >= _PARAMETER_MEMO_MIN_BYTES and parameter.key in keys
    ]


def input_frame_schema(pipeline: Any) -> Optional[FrameSchema]:
    """A pipeline's input schema compiled for the data plane (None: it has none).

    The one function both ends of the wire run at registration -- the cluster
    on the pipeline it ships, each worker on the pipeline it unpickles -- so
    the frame layout is never negotiated and no key name ever travels.
    """
    return frame_schema(flour_from_pipeline(pipeline).input_schema())


class ServingWorker:
    """The in-process half of a worker: runtime + message handlers.

    Split from :func:`worker_main` so tests can drive the handlers directly
    (no subprocess) and the loop stays a thin transport shell.
    """

    def __init__(
        self,
        worker_id: str,
        config: Optional[PretzelConfig] = None,
        arena_segment: Optional[str] = None,
    ):
        self.worker_id = worker_id
        self.config = config or PretzelConfig()
        self.arena = ArenaClient(arena_segment) if arena_segment else None
        self.runtime = PretzelRuntime(self.config, parameter_backing=self.arena)
        # The cluster front door owns the head-sampling decision; a predict
        # arriving without a wire context was *not* sampled, so this runtime
        # must not mint a trace of its own for it.
        self.runtime.mint_traces = False
        #: registry-backed instruments; ``served_predictions`` /
        #: ``failed_requests`` stay available as read-only properties with
        #: their historical per-worker semantics
        self.predictions_total = observability.registry().counter(
            "pretzel_worker_predictions_total"
        )
        self.failed_total = observability.registry().counter(
            "pretzel_worker_failed_total"
        )
        self.predict_seconds = observability.registry().histogram(
            "pretzel_worker_predict_seconds"
        )
        #: plan id -> the plan's compiled input schema (None: no schema, its
        #: predicts arrive on the envelope); set at registration
        #: (:func:`input_frame_schema`) and dropped with the plan.
        self._schemas: Dict[str, Optional[FrameSchema]] = {}
        #: register references resolved from the Object Store, and those
        #: answered as missing (see :meth:`_handle_register`)
        self.references_resolved = 0
        self.references_missing = 0

    @property
    def served_predictions(self) -> int:
        return self.predictions_total.value

    @property
    def failed_requests(self) -> int:
        return self.failed_total.value

    # -- handlers ------------------------------------------------------------

    def serve_frame(self, payload: bytes) -> bytes:
        """Answer one ``PZF1`` request frame: the straight-line predict path.

        The frame unpacks into the predict's arguments and never becomes a
        message dict.  A frame that does not unpack -- malformed, or
        mis-addressed to a plan or schema this worker lacks -- and a predict
        that raises get the typed ``ok: false`` envelope reply, addressed
        whenever the frame's msg id could be read.
        """
        started = time.perf_counter()
        try:
            msg_id, plan_id, records, flags, wire = unpack_predict_frame(
                payload, self._schema_of
            )
        except Exception as error:  # noqa: BLE001 - no payload may end the loop
            return self._encode(self.failure(getattr(error, "msg_id", None), error))
        trace = None
        if wire is not None:
            trace = observability.TraceContext.from_wire(wire)
            _span(trace, "worker.receive", time.perf_counter() - started, len(payload))
        try:
            outputs = self.predict(plan_id, records, bool(flags & FLAG_LATENCY_SENSITIVE), trace)
        except Exception as error:  # noqa: BLE001 - reported to the caller
            reply = self.failure(msg_id, error)
        else:
            reply = {"outputs": outputs, "msg_id": msg_id, "ok": True, "worker_id": self.worker_id}
        return self._encode(reply, trace, payload)

    def serve_envelope(self, payload: bytes) -> Tuple[bytes, Any]:
        """Answer one JSON envelope message: ``(reply bytes, message type)``.

        A payload that is not a JSON object gets the typed ``ok: false``
        reply (and no type), instead of ending the loop.
        """
        started = time.perf_counter()
        try:
            message = deserialize_message(payload)
            if not isinstance(message, dict):
                raise TypeError(f"a message is a JSON object, not {type(message).__name__}")
        except Exception as error:  # noqa: BLE001 - no payload may end the loop
            return self._encode(self.failure(None, error)), None
        trace = observability.TraceContext.from_wire(message.get("trace"))
        if trace is not None:
            _span(trace, "worker.receive", time.perf_counter() - started, len(payload))
        return self._encode(self.handle(message), trace), message.get("type")

    def _encode(
        self,
        reply: Dict[str, Any],
        trace: Optional[observability.TraceContext] = None,
        request: Optional[bytes] = None,
    ) -> bytes:
        """A reply's bytes: a reply frame when it answers a request frame and
        fits one, else the envelope."""
        started = time.perf_counter()
        encoded = encode_reply_frame(request, reply) if request is not None else None
        if encoded is None:
            try:
                encoded = serialize_message(reply)
            except TypeError as error:
                # A handler produced a non-JSON-able value (e.g. a plan whose
                # sink emits a custom object); report instead of crashing.
                self.failed_total.inc()
                encoded = serialize_message(
                    {
                        "msg_id": reply.get("msg_id"),
                        "ok": False,
                        "worker_id": self.worker_id,
                        "error": f"reply not serializable: {error}",
                        "error_type": "TypeError",
                    }
                )
        if trace is not None:
            _span(trace, "reply.encode", time.perf_counter() - started, len(encoded))
        return encoded

    def _schema_of(self, plan_id: str) -> Optional[FrameSchema]:
        try:
            return self._schemas[plan_id]
        except KeyError:
            # The envelope path's error, so both planes report an unknown
            # plan alike.
            raise KeyError(f"plan {plan_id!r} is not registered") from None

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded message; always returns a reply payload."""
        msg_id = message.get("msg_id")
        kind = message.get("type")
        try:
            handler = getattr(self, f"_handle_{kind}", None)
            if handler is None:
                raise ValueError(f"unknown message type {kind!r}")
            reply = handler(message)
            reply.update({"msg_id": msg_id, "ok": True, "worker_id": self.worker_id})
            return reply
        except BaseException as error:  # noqa: BLE001 - reported to the caller
            return self.failure(msg_id, error)

    def failure(self, msg_id: Any, error: BaseException) -> Dict[str, Any]:
        """The typed ``ok: false`` reply for ``error`` (counted as a failure)."""
        self.failed_total.inc()
        return {
            "msg_id": msg_id,
            "ok": False,
            "worker_id": self.worker_id,
            "error": str(error) or repr(error),
            "error_type": type(error).__name__,
            "traceback": "".join(traceback.format_exception(error, limit=8)),
        }

    def _handle_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    def _handle_register(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Register a plan, rebinding its weights onto the listed arena slabs.

        Each reference in the model payload resolves to the value this
        worker's Object Store already holds -- that very object, which is
        then not hashed again.  When some key is not in the store, nothing
        is registered and the reply lists the ``missing`` keys, for the
        sender to resend the model fully inline.  This loop serves one message
        at a time, so the store cannot change between resolve and register.
        """
        resolved: List[Parameter] = []
        missing: Dict[str, None] = {}

        def resolve(key: str) -> Any:
            parameter = self.runtime.object_store.stored_parameter(key)
            if parameter is None:
                missing[key] = None
                return None
            resolved.append(parameter)
            return parameter.value

        pipeline, stats = decode_model(message["model_b64"], resolve)
        if missing:
            self.references_missing += len(missing)
            return {"plan_id": message.get("plan_id"), "missing": list(missing)}
        self.references_resolved += len(resolved)
        rebound = 0
        with known_parameters(resolved):
            if self.arena is not None:
                refs = {
                    checksum: ArenaRef.from_dict(ref)
                    for checksum, ref in (message.get("arena_refs") or {}).items()
                }
                self.arena.update_refs(refs)
                for operator in pipeline.operators():
                    rebound += self.arena.rebind_operator(operator)
            plan_id = self.runtime.register(
                pipeline,
                stats=stats,
                engine=message.get("engine", "request-response"),
                plan_id=message.get("plan_id"),
            )
            self._schemas[plan_id] = input_frame_schema(pipeline)
        return {
            "plan_id": plan_id,
            "rebound_arrays": rebound,
            "memory_bytes": self.runtime.memory_bytes(),
        }

    def _handle_unregister(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Tear a plan down (registration rollback, or full unregister).

        ``drop_checksums`` lists the arena slabs the owner will free once
        every hosting worker has acknowledged this teardown; forgetting the
        refs here guarantees a recycled slab is never re-adopted under a
        later registration.
        """
        # The plan and its schema go together: a frame can never be decoded
        # against the columns of a registration that is gone.
        self._schemas.pop(message["plan_id"], None)
        self.runtime.unregister(message["plan_id"])
        dropped = 0
        if self.arena is not None:
            dropped = self.arena.drop_refs(message.get("drop_checksums") or ())
        return {
            "plan_id": message["plan_id"],
            "unregistered": True,
            "dropped_refs": dropped,
            "memory_bytes": self.runtime.memory_bytes(),
        }

    def _handle_predict(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # The cluster's sampling decision rides the envelope: rebuild the
        # context (None when unsampled) so worker-side spans join the trace
        # the front door started.
        outputs = self.predict(
            message["plan_id"],
            message["records"],
            bool(message.get("latency_sensitive", False)),
            observability.TraceContext.from_wire(message.get("trace")),
        )
        return {"outputs": outputs}

    def predict(
        self,
        plan_id: str,
        records: List[Any],
        latency_sensitive: bool = False,
        trace: Optional[observability.TraceContext] = None,
    ) -> List[Any]:
        """Serve one predict request: the one predict path of both planes.

        A multi-record call on a batch-engine plan runs as one
        ``predict_batch`` group (a span per stage when traced); anything
        else runs the request-response engine record by record, tracing the
        first.
        """
        started = time.perf_counter()
        runtime = self.runtime
        if len(records) == 1:
            outputs = [runtime.predict(plan_id, records[0], trace=trace)]
        elif runtime.registered(plan_id).engine == "batch":
            outputs = runtime.predict_batch(
                plan_id, records, latency_sensitive=latency_sensitive, trace=trace
            )
        else:
            outputs = [
                runtime.predict(plan_id, record, trace=trace if index == 0 else None)
                for index, record in enumerate(records)
            ]
        self.predict_seconds.observe(time.perf_counter() - started)
        self.predictions_total.inc(len(records))
        return outputs

    def _handle_memory(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Footprint probe: just the number, not the full stats payload."""
        return {"memory_bytes": self.runtime.memory_bytes()}

    def _handle_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "stats": self.runtime.stats(),
            "served_predictions": self.served_predictions,
            "failed_requests": self.failed_requests,
            "memory_bytes": self.runtime.memory_bytes(),
            "arena": self.arena.stats() if self.arena is not None else None,
            "tracing": observability.tracer().stats(),
            "registration": {
                "by_reference": self.references_resolved,
                "missing": self.references_missing,
            },
        }

    def _handle_traces(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Harvest this process's span flight recorder (optionally draining)."""
        return {"spans": observability.tracer().dump(drain=bool(message.get("drain")))}

    def _handle_metrics(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """This process's metrics registry, ready for exact cross-worker merge."""
        return {"metrics": observability.registry().snapshot()}

    def _handle_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"bye": True}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self.runtime.shutdown()
        if self.arena is not None:
            self.arena.close()


def _span(trace: observability.TraceContext, name: str, seconds: float, size: int) -> None:
    """One worker-side wire span of a sampled request (``size`` bytes)."""
    observability.tracer().record(
        trace.trace_id,
        name,
        seconds,
        parent_span_id=trace.parent_span_id,
        attributes={"bytes": size},
    )


def _serve(worker: ServingWorker, transport: Transport) -> str:
    """Serve the channel until a shutdown message or the peer's close.

    Returns ``"shutdown"`` when a shutdown message ended the loop and
    ``"eof"`` when the peer dropped the channel.
    """
    while True:
        try:
            payload = transport.recv_bytes()
        except (EOFError, OSError):
            return "eof"
        if payload.startswith(PREDICT_FRAME_MAGIC):
            encoded, kind = worker.serve_frame(payload), "predict"
        else:
            encoded, kind = worker.serve_envelope(payload)
        try:
            transport.send_bytes(encoded)
        except OSError:
            return "eof"
        if kind == "shutdown":
            return "shutdown"


def worker_main(
    worker_id: str,
    channel: socket.socket,
    config: PretzelConfig,
    arena_segment: Optional[str],
    inherited: Sequence[socket.socket] = (),
) -> None:
    """Process entry point: serve the cluster's socketpair end until shutdown/EOF.

    ``inherited`` are the cluster-side sockets the fork copied (this
    channel's other end and every earlier worker's).  They are closed before
    serving: while any copy stays open, the channel never reads EOF, and the
    worker would outlive a cluster that died without a shutdown.
    """
    for sock in inherited:
        sock.close()
    transport = SocketTransport(channel)
    # Fork barrier: a forked worker inherits the cluster's span buffer and
    # instrument values; zero both and take this worker's identity before
    # anything is recorded, or every parent-side span would report twice.
    observability.attach_process(worker_id)
    worker = ServingWorker(worker_id, config=config, arena_segment=arena_segment)
    try:
        _serve(worker, transport)
    finally:
        worker.close()
        transport.close()
