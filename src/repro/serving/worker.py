"""A serving worker: one process hosting a full PretzelRuntime.

Each worker owns a complete white-box runtime -- Object Store, stage
batching, reservations, vector pools, telemetry -- and serves a message loop
over a :class:`~repro.serving.control.transport.Transport`.  The loop only
ever touches the Transport interface (``send_bytes`` / ``recv_bytes`` /
``poll`` / ``close``), so the same worker serves a ``multiprocessing`` duplex
pipe (:class:`~repro.serving.control.transport.PipeTransport`, the cluster's
default), a cluster-dialed TCP connection, or a standalone ``--listen``
socket a remote cluster attaches to.  The wire has two formats (see
:mod:`repro.net`).  The *control plane* is the JSON envelope of
:func:`repro.net.serialize_message` / :func:`repro.net.deserialize_message`,
the same wire format every front-end in this repository models; it carries
every control message, every predict whose records do not conform to the
plan's schema and every reply that is not all floats.  Pickled model
payloads travel base64-encoded inside it, and by reference where they can:
each big trained value the worker's Object Store already holds (a shared
n-gram vocabulary) is pickled as its store key, and the worker resolves
that key to the very object it holds -- no copy, no re-hash
(:func:`model_references`, :meth:`ServingWorker._handle_register`).  A key
the store lacks is answered as missing, and the model is resent fully inline.
The *data plane* carries the predicts whose records conform to their plan's
input schema -- derived at registration, on both ends, from the same
pipeline -- as fixed-layout binary frames with no JSON and no key names in
either direction (:func:`repro.net.encode_predict`); they decode into the
very message dict the envelope would have carried and go through the same
handler, replay cache and spans.

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

Standalone (multi-host) mode::

    python -m repro.serving.worker --listen 0.0.0.0:7733 --worker-id remote-0

binds a :class:`~repro.serving.control.transport.SocketListener` and serves
one cluster connection at a time (re-accepting after a drop, which is what
makes the cluster side's reconnect-once retry work) until a ``shutdown``
message arrives.
"""

from __future__ import annotations

import argparse
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
    PREDICT_FRAME_MAGIC,
    FrameSchema,
    decode_predict_frame,
    deserialize_message,
    encode_reply_frame,
    frame_schema,
    parse_host_port,
    serialize_message,
)
from repro.operators.base import _PARAMETER_MEMO_MIN_BYTES, Parameter, known_parameters
from repro.serving.control.transport import PipeTransport, SocketListener, Transport
from repro.serving.shm_store import ArenaClient, ArenaRef

__all__ = [
    "ServingWorker",
    "worker_main",
    "socket_worker_main",
    "listen_and_serve",
    "encode_model",
    "decode_model",
    "model_references",
    "input_frame_schema",
    "main",
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
        #: (msg_id, encoded reply) of the last request served.  The socket
        #: transport's reconnect-once retry *resends* the in-flight frame, so
        #: a worker that already processed it (the drop happened after
        #: delivery) would otherwise execute a non-idempotent message -- e.g.
        #: a register -- twice.  Replaying the cached reply makes the resend
        #: exactly-once from the cluster's point of view.  It survives across
        #: connections on purpose: the duplicate arrives on the re-accepted
        #: connection.
        self.last_reply: Optional[Tuple[Any, bytes]] = None
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

    def decode(self, payload: bytes) -> Dict[str, Any]:
        """One received payload as a message dict, whichever plane it rode.

        A data-plane predict frame decodes (against its plan's schema) into
        the same dict the envelope would have carried, so both planes share
        :meth:`handle`.  Raises on anything that is not a message -- an
        undecodable payload, a JSON value that is not an object, a malformed
        or mis-addressed frame; the serve loop answers those with
        :meth:`failure` and keeps serving.
        """
        if payload.startswith(PREDICT_FRAME_MAGIC):
            return decode_predict_frame(payload, self._schema_of)
        message = deserialize_message(payload)
        if not isinstance(message, dict):
            raise TypeError(f"a message is a JSON object, not {type(message).__name__}")
        return message

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
        plan_id = message["plan_id"]
        records = message["records"]
        registered = self.runtime.registered(plan_id)
        # The cluster's sampling decision rides the envelope: rebuild the
        # context (None when unsampled) so worker-side spans join the trace
        # the front door started.  A batch-engine call traces its one group
        # (a span per stage); the request-response loop traces its first record.
        trace = observability.TraceContext.from_wire(message.get("trace"))
        started = time.perf_counter()
        if registered.engine == "batch" and len(records) > 1:
            outputs = self.runtime.predict_batch(
                plan_id,
                records,
                latency_sensitive=bool(message.get("latency_sensitive", False)),
                trace=trace,
            )
        else:
            outputs = [
                self.runtime.predict(plan_id, record, trace=trace if index == 0 else None)
                for index, record in enumerate(records)
            ]
        self.predict_seconds.observe(time.perf_counter() - started)
        self.predictions_total.inc(len(records))
        return {"outputs": outputs}

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


def _serve(worker: ServingWorker, transport: Transport) -> str:
    """Serve one connection until shutdown or peer close.

    Returns ``"shutdown"`` when a shutdown message ended the loop and
    ``"eof"`` when the peer dropped the connection (a listening worker then
    re-accepts, which is what the cluster's reconnect-once retry relies on).
    """
    while True:
        try:
            payload = transport.recv_bytes()
        except (EOFError, OSError):
            return "eof"
        decode_started = time.perf_counter()
        reply = None
        try:
            message = worker.decode(payload)
        except Exception as error:  # noqa: BLE001 - no payload may end the loop
            # Not a message at all (or a frame this worker cannot read): a
            # typed reply -- addressed, when the frame header got that far --
            # instead of the death of the process hosting every plan.
            reply = worker.failure(getattr(error, "msg_id", None), error)
            message = {"msg_id": reply["msg_id"]}
        decode_seconds = time.perf_counter() - decode_started
        msg_id = message.get("msg_id")
        cached = worker.last_reply
        if msg_id is not None and cached is not None and cached[0] == msg_id:
            # A transport-level resend of a message this worker already
            # processed (the connection dropped after delivery): replay the
            # recorded reply instead of executing the handler twice.  No
            # spans or counters either -- the first delivery recorded them;
            # recording again would double-count the request in every view.
            encoded = cached[1]
        else:
            trace = observability.TraceContext.from_wire(message.get("trace"))
            if trace is not None:
                observability.tracer().record(
                    trace.trace_id,
                    "worker.receive",
                    decode_seconds,
                    parent_span_id=trace.parent_span_id,
                    attributes={"bytes": len(payload)},
                )
            if reply is None:
                reply = worker.handle(message)
            encode_started = time.perf_counter()
            try:
                # A frame is answered with a frame when the reply fits one.
                encoded = (
                    encode_reply_frame(payload, reply)
                    if payload.startswith(PREDICT_FRAME_MAGIC)
                    else None
                ) or serialize_message(reply)
            except TypeError as error:
                # A handler produced a non-JSON-able value (e.g. a plan whose
                # sink emits a custom object); report instead of crashing.
                worker.failed_total.inc()
                encoded = serialize_message(
                    {
                        "msg_id": msg_id,
                        "ok": False,
                        "worker_id": worker.worker_id,
                        "error": f"reply not serializable: {error}",
                        "error_type": "TypeError",
                    }
                )
            if trace is not None:
                observability.tracer().record(
                    trace.trace_id,
                    "reply.encode",
                    time.perf_counter() - encode_started,
                    parent_span_id=trace.parent_span_id,
                    attributes={"bytes": len(encoded)},
                )
            if msg_id is not None:
                worker.last_reply = (msg_id, encoded)
        try:
            transport.send_bytes(encoded)
        except OSError:
            return "eof"
        if message.get("type") == "shutdown":
            return "shutdown"


def worker_main(
    worker_id: str,
    connection: Any,
    config: PretzelConfig,
    arena_segment: Optional[str],
) -> None:
    """Process entry point: serve one connection until shutdown/EOF.

    ``connection`` is either a :class:`Transport` or a raw ``multiprocessing``
    ``Connection`` (wrapped in a :class:`PipeTransport`, byte-identically to
    the pre-control-plane tier).
    """
    transport = (
        connection if isinstance(connection, Transport) else PipeTransport(connection)
    )
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


def listen_and_serve(
    worker: ServingWorker,
    listener: SocketListener,
    accept_timeout: Optional[float] = None,
) -> None:
    """Accept cluster connections one at a time until a shutdown message.

    A dropped connection sends the loop back to ``accept`` instead of
    exiting, so a cluster-side reconnect (the transport's reconnect-once
    semantics) finds the worker -- with all its registered plans -- intact.
    """
    try:
        while True:
            try:
                transport = listener.accept(timeout=accept_timeout)
            except (socket.timeout, OSError):
                break
            try:
                outcome = _serve(worker, transport)
            finally:
                transport.close()
            if outcome == "shutdown":
                break
    finally:
        worker.close()
        listener.close()


def socket_worker_main(
    worker_id: str,
    bootstrap: Any,
    config: PretzelConfig,
    arena_segment: Optional[str],
    host: str = "127.0.0.1",
) -> None:
    """Process entry point for a cluster-spawned *socket* worker.

    Binds an ephemeral port, reports it back over the one-shot ``bootstrap``
    pipe (the only pipe traffic a socket worker ever sees), then serves TCP.
    """
    listener = SocketListener(host=host, port=0)
    try:
        bootstrap.send_bytes(serialize_message({"port": listener.port, "host": host}))
    finally:
        bootstrap.close()
    observability.attach_process(worker_id)  # fork barrier, as in worker_main
    worker = ServingWorker(worker_id, config=config, arena_segment=arena_segment)
    listen_and_serve(worker, listener)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run a standalone listening worker a remote cluster can attach to."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.worker",
        description="Serve a PretzelRuntime worker over a listening TCP socket.",
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to bind (PORT 0 picks an ephemeral port)",
    )
    parser.add_argument("--worker-id", default="worker-listen", help="worker id for telemetry")
    parser.add_argument(
        "--arena",
        default=None,
        metavar="SEGMENT",
        help="shared-memory arena segment to attach (same-host clusters only)",
    )
    args = parser.parse_args(argv)
    try:
        host, port = parse_host_port(args.listen)
    except ValueError:
        parser.error("--listen must be HOST:PORT")
    listener = SocketListener(host=host, port=port)
    bound_host, bound_port = listener.address
    print(f"pretzel worker {args.worker_id!r} listening on {bound_host}:{bound_port}", flush=True)
    observability.attach_process(args.worker_id)
    worker = ServingWorker(args.worker_id, config=PretzelConfig(), arena_segment=args.arena)
    listen_and_serve(worker, listener)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
