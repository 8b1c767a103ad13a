"""PretzelCluster: shard a PretzelRuntime across worker processes.

The single-process runtime is capped by the GIL no matter how well stages
batch; the cluster crosses the process boundary while keeping the runtime's
API and -- through the shared-memory arena -- the Object Store's white-box
parameter sharing:

* **Workers.**  ``num_workers`` processes, each hosting a full
  :class:`~repro.core.runtime.PretzelRuntime` and forked with one end of a
  ``socket.socketpair()``: a
  :class:`~repro.serving.control.transport.SocketTransport` of
  length-prefixed messages is the tier's one channel to a worker.
* **Parameter sharing.**  When ``shm_budget_bytes > 0`` the cluster owns a
  :class:`~repro.serving.shm_store.SharedMemoryArena`.  At registration every
  fixed-width numpy parameter at least ``shm_min_parameter_bytes`` big is
  copied into the arena exactly once (deduplicated by the Object Store's
  content checksum), and workers rebind their unpickled copies onto read-only
  views of the shared slabs -- N workers map one copy of each weight.
* **Routing.**  Plans are placed on ``placement_replicas`` workers by a
  consistent-hash ring; each request goes to the placed worker with the
  fewest in-flight dispatches (a worker runs each predict inline and keeps
  no queue of its own, so that count is its whole load).  When every
  placed worker is at ``max_inflight_per_worker`` the request is shed with a
  typed :class:`~repro.serving.router.BackpressureError` instead of queueing
  without bound.
* **Control plane.**  A per-cluster
  :class:`~repro.serving.control.plane.ControlPlane` turns the static tier
  dynamic: piggybacked heartbeats plus idle pings detect dead workers, death
  evicts the worker from every placement and re-registers its plans onto
  survivors, and in-flight requests to the dead worker fail with the retryable
  :class:`~repro.serving.control.failure.WorkerFailedError`.  The
  :class:`~repro.serving.control.lifecycle.PlanLifecycle` reference-counts
  every plan's arena checksums so :meth:`PretzelCluster.unregister` can give
  exclusively-referenced slabs back to the allocator's free lists.
* **Arena pressure.**  A parameter that does not fit the arena stays
  private on the workers of the plan registering it and is counted in
  ``arena_overflows``.  No registered plan is ever demoted or torn down to
  make room: a plan leaves the arena only through :meth:`unregister`.
  Evicting a plan would free nothing anyway -- its one shared copy would
  become one private copy per hosting worker.

Lifecycle transitions are plan-parallel: each plan id owns a transition
lock (registration, unregister and fail-over re-homing of one plan
serialize on it), and only the arena claim protocol -- dedup-claim and
release-on-teardown -- runs under a short global phase lock.  One plan's
multi-second worker round trips therefore never stall another plan's
registration; the named locks report contended wait time through
``stats()["profile"]["locks"]``.

A predict takes one straight line through the front door: one plan lookup,
the router's least-in-flight pick, then a ``PZF1`` frame packed from the
parts the plan's registration prebuilt (plan-id bytes, schema width and
fingerprint) and the records packed by the plan's schema -- no message dict,
no detour through the envelope encoder -- and one round trip on the worker's
channel (:meth:`_WorkerHandle.round_trip`, shared with every control
message).  A sampled request (the tracer's 1-in-N) takes the same line,
adding its 32 trace bytes to the frame header and recording the front
door's spans; records that do not conform ride the JSON envelope through the
same round trip.

The facade mirrors :class:`~repro.core.runtime.PretzelRuntime`:
``register`` / ``unregister`` / ``predict`` / ``predict_batch`` / ``stats``
/ ``memory_bytes`` / ``shutdown`` plus the context-manager protocol, so a
single-process deployment can be turned into a sharded one by swapping the
constructor.
"""

from __future__ import annotations

import itertools
import multiprocessing
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import observability, profiling
from repro.core.config import PretzelConfig
from repro.core.statistics import TransformStats
from repro.profiling.locks import ProfiledLock, ProfiledRLock
from repro.mlnet.pipeline import Pipeline
from repro.net import (
    BINARY_MAGICS,
    FLAG_LATENCY_SENSITIVE,
    FLAG_TRACED,
    REPLY_FRAME_MAGIC,
    FrameSchema,
    decode_reply,
    pack_predict_frame,
    serialize_message,
)
from repro.observability.tracing import pack_trace_wire
from repro.operators.base import Parameter
from repro.serving.control.failure import WorkerFailedError
from repro.serving.control.lifecycle import PlanLifecycle
from repro.serving.control.plane import ControlPlane
from repro.serving.control.transport import SocketTransport
from repro.serving.router import ShardRouter
from repro.serving.shm_store import ArenaExhaustedError, SharedMemoryArena, _shareable
from repro.serving.worker import encode_model, input_frame_schema, model_references, worker_main

__all__ = ["WorkerFailure", "WorkerTimeout", "PretzelCluster"]


class WorkerFailure(RuntimeError):
    """A worker reported an error (or died) while handling a request.

    ``connection_lost`` distinguishes a *channel* failure (EOF, broken pipe,
    reset -- the worker is unreachable and the control plane should consider
    fail-over) from an application error the worker reported over a healthy
    channel (a bad registration, a serialization problem), which says nothing
    about the worker's liveness.
    """

    def __init__(
        self,
        worker_id: str,
        error: str,
        error_type: str = "RuntimeError",
        remote_traceback: Optional[str] = None,
        connection_lost: bool = False,
    ):
        self.worker_id = worker_id
        self.error_type = error_type
        self.remote_traceback = remote_traceback
        self.connection_lost = connection_lost
        super().__init__(f"worker {worker_id!r} failed: [{error_type}] {error}")


class WorkerTimeout(TimeoutError):
    """A worker stayed silent past ``worker_timeout_seconds``."""

    def __init__(self, worker_id: str, timeout: float, kind: str):
        self.worker_id = worker_id
        self.timeout = timeout
        super().__init__(
            f"worker {worker_id!r} did not answer a {kind!r} request within {timeout}s"
        )


class _WorkerHandle:
    """Parent-side endpoint of one worker: process + transport + pairing.

    One lock per worker serializes send/receive pairs on the channel, so
    concurrent client threads can talk to *different* workers in parallel
    while requests to the same worker stay strictly ordered.
    """

    def __init__(self, worker_id: str, process: Any, transport: SocketTransport):
        self.worker_id = worker_id
        self.process = process
        self.transport = transport
        self.lock = ProfiledLock("cluster.worker-channel")
        #: wire accounting (message payloads, before transport framing):
        #: binary messages are data-plane predict frames, json messages the
        #: ``serialize_message`` envelope.  Registry-backed instruments
        #: (summed across handles by the unified metrics plane); the historic
        #: per-handle attributes stay available as read-only properties.
        _registry = observability.registry()
        self._bytes_sent = _registry.counter("pretzel_wire_bytes_sent_total")
        self._bytes_received = _registry.counter("pretzel_wire_bytes_received_total")
        self._binary_messages = _registry.counter("pretzel_wire_binary_messages_total")
        self._json_messages = _registry.counter("pretzel_wire_json_messages_total")
        self._binary_replies = _registry.counter("pretzel_wire_binary_replies_total")

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent.value

    @property
    def bytes_received(self) -> int:
        return self._bytes_received.value

    @property
    def binary_messages(self) -> int:
        return self._binary_messages.value

    @property
    def json_messages(self) -> int:
        return self._json_messages.value

    @property
    def binary_replies(self) -> int:
        return self._binary_replies.value

    def process_alive(self) -> bool:
        return self.process.is_alive()

    def provably_dead(self, error: BaseException) -> bool:
        """True when a failed request proves this worker maps nothing anymore.

        The single liveness predicate of the arena reclamation protocol
        (shared by the teardown guard, ``stats`` and ``memory_bytes``): the
        connection must be gone *and* the hosting process must be dead.  An
        application error over a healthy channel proves nothing.
        """
        return (
            isinstance(error, WorkerFailure)
            and error.connection_lost
            and not self.process.is_alive()
        )

    def request(
        self, message: Dict[str, Any], timeout: float, blocking: bool = True
    ) -> Optional[Dict[str, Any]]:
        """One control message's round trip on the JSON envelope (see
        :meth:`round_trip`; ``blocking=False`` is the control plane's ping)."""
        encoded = serialize_message(message)
        kind = str(message.get("type"))
        return self.round_trip(encoded, message["msg_id"], kind, timeout, blocking)

    def round_trip(
        self,
        encoded: bytes,
        msg_id: str,
        kind: str,
        timeout: float,
        blocking: bool = True,
    ) -> Optional[Dict[str, Any]]:
        """Send one encoded message and return the decoded reply to ``msg_id``.

        The channel's one send/poll/receive loop, for predict frames and
        envelope messages alike.  Raises :class:`WorkerTimeout` when no reply
        arrives within ``timeout`` seconds, :class:`WorkerFailure` with
        ``connection_lost`` when the channel breaks, and a plain
        :class:`WorkerFailure` for an ``ok: false`` reply.  Returns None only
        when ``blocking`` is False and another request holds the channel.
        """
        lock = self.lock
        if not lock.acquire(blocking):
            return None
        try:
            self._bytes_sent.inc(len(encoded))
            if encoded.startswith(BINARY_MAGICS):
                self._binary_messages.inc()
            else:
                self._json_messages.inc()
            transport = self.transport
            transport.send_bytes(encoded)
            deadline = time.monotonic() + timeout
            remaining = timeout
            while True:
                if remaining <= 0 or not transport.poll(remaining):
                    # Raised below, outside this try: WorkerTimeout is an
                    # OSError, which would be misreported as a lost channel.
                    reply = None
                    break
                raw = transport.recv_bytes()
                self._bytes_received.inc(len(raw))
                if raw.startswith(REPLY_FRAME_MAGIC):
                    self._binary_replies.inc()
                reply = decode_reply(raw)
                if reply.get("msg_id") == msg_id:
                    break
                # A stale reply from a request that previously timed out:
                # the channel is FIFO and msg ids are monotonic, so anything
                # that is not ours is older.  Discard it and keep waiting
                # -- this resynchronizes the channel instead of poisoning
                # every later request on this worker.
                remaining = deadline - time.monotonic()
        except (EOFError, OSError) as error:
            raise WorkerFailure(
                self.worker_id,
                f"connection lost during {kind!r} ({error!r}); the process "
                f"is {'alive' if self.process_alive() else 'dead'}",
                error_type=type(error).__name__,
                connection_lost=True,
            ) from error
        finally:
            lock.release()
        if reply is None:
            raise WorkerTimeout(self.worker_id, timeout, kind)
        if not reply.get("ok", False):
            raise WorkerFailure(
                self.worker_id,
                str(reply.get("error")),
                error_type=str(reply.get("error_type", "RuntimeError")),
                remote_traceback=reply.get("traceback"),
            )
        return reply

    def close(self) -> None:
        self.transport.close()


def _frame_head(plan_id: str, schema: Optional[FrameSchema]) -> Optional[Tuple[Any, ...]]:
    """A plan's prebuilt frame parts: ``(schema._pack, plan-id bytes, width,
    fingerprint)``, or None when its predicts can only ride the envelope (no
    schema, or a plan id the header cannot carry)."""
    if schema is None:
        return None
    try:
        plan = plan_id.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: only JSON escapes it
        return None
    if len(plan) > 0xFFFF:
        return None
    return (schema._pack, plan, schema.width, schema.fingerprint)


class PretzelCluster:
    """A multi-process serving tier with runtime semantics.

    Registration accepts trained :class:`~repro.mlnet.pipeline.Pipeline`
    objects (the off-line artifact every front-end in this repository starts
    from); compilation to a model plan happens inside each hosting worker, so
    workers stay white boxes with their own stage catalogs and schedulers.
    """

    def __init__(self, config: Optional[PretzelConfig] = None):
        self.config = config or PretzelConfig()
        num_workers = max(1, int(self.config.num_workers))
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        self.arena: Optional[SharedMemoryArena] = (
            SharedMemoryArena(self.config.shm_budget_bytes)
            if self.config.shm_budget_bytes > 0
            else None
        )
        self._workers: Dict[str, _WorkerHandle] = {}
        #: handles of evicted workers, kept for their wire counters
        self._evicted_handles: Dict[str, _WorkerHandle] = {}
        self._plans: Dict[str, Dict[str, Any]] = {}
        #: msg ids are ``prefix:seq``; the prefix is unique per cluster
        #: generation, so no two clusters' messages are ever confused
        self._msg_prefix = uuid.uuid4().hex[:8]
        self._msg_prefix_bytes = self._msg_prefix.encode("ascii")
        self._msg_ids = itertools.count()
        self._lock = threading.Lock()
        #: short global "phase" lock serializing only the arena *claim
        #: protocol*: dedup-claim (slab probe + lifecycle note) and
        #: release-on-teardown.  Each section holds it for microseconds, so
        #: one thread's unregister can never free a slab another thread's
        #: in-progress registration has dedup-hit but not yet claimed --
        #: without serializing whole registrations behind each other.
        self._phase_lock = ProfiledRLock("cluster.phase")
        #: per-plan transition locks (created on first use, never removed --
        #: one small object per distinct plan id ever seen).  A plan's
        #: registration, unregister and re-home serialize on its own lock,
        #: so plans transition in parallel.
        self._plan_locks: Dict[str, ProfiledRLock] = {}
        self._plan_locks_guard = threading.Lock()
        self._closed = False
        self.arena_overflows = 0
        #: register messages resent fully inline because a worker's Object
        #: Store lacked some value sent by reference (see :meth:`register`)
        self.inline_resends = 0
        # The tracing front door: sampling decisions are made here and ride
        # the wire envelope; workers inherit the knobs through the config.
        self._tracer = observability.configure(
            enabled=self.config.enable_tracing,
            sample_rate=self.config.trace_sample_rate,
            buffer_size=self.config.trace_buffer_size,
            process="cluster",
        )
        #: end-to-end dispatch latency (admission -> reply decoded), observed
        #: for every request; merges exactly with worker-side histograms
        self._request_latency = observability.registry().histogram(
            "pretzel_request_latency_seconds"
        )
        try:
            for index in range(num_workers):
                worker_id = f"worker-{index}"
                self._workers[worker_id] = self._spawn_worker(context, worker_id)
            self.router = ShardRouter(
                list(self._workers),
                replicas=min(max(1, self.config.placement_replicas), len(self._workers)),
                max_inflight_per_worker=self.config.max_inflight_per_worker,
            )
            self.lifecycle = PlanLifecycle()
            self.control = ControlPlane(self)
            # One ping round trip per worker confirms every runtime booted
            # (and surfaces import failures as typed errors, not hangs).
            for handle in self._workers.values():
                self._ask(handle, "ping")
            self.control.start()
        except BaseException:
            self._tear_down(graceful=False)
            raise

    # -- worker bring-up --------------------------------------------------------

    def _spawn_worker(self, context: Any, worker_id: str) -> _WorkerHandle:
        arena_name = self.arena.name if self.arena is not None else None
        parent_end, child_end = socket.socketpair()
        # The fork copies the cluster-side end of this channel and of every
        # earlier worker's; the worker closes them, so it reads EOF when the
        # cluster dies without a shutdown.
        inherited = [parent_end] + [handle.transport.sock for handle in self._workers.values()]
        process = context.Process(
            target=worker_main,
            name=f"pretzel-{worker_id}",
            args=(worker_id, child_end, self.config, arena_name, inherited),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        return _WorkerHandle(worker_id, process, SocketTransport(parent_end))

    # -- registration ---------------------------------------------------------

    def _plan_lock(self, plan_id: str) -> ProfiledRLock:
        """The per-plan transition lock (created on first use, kept forever).

        Every plan lock shares one stat name, so the wait registry reports
        their aggregate contention as a single ``cluster.plan`` line.
        """
        with self._plan_locks_guard:
            lock = self._plan_locks.get(plan_id)
            if lock is None:
                lock = self._plan_locks[plan_id] = ProfiledRLock("cluster.plan")
            return lock

    def register(
        self,
        pipeline: Pipeline,
        stats: Optional[Dict[str, TransformStats]] = None,
        engine: str = "request-response",
        plan_id: Optional[str] = None,
        replicas: Optional[int] = None,
    ) -> str:
        """Place a trained pipeline on its shard and register it there.

        Mirrors :meth:`PretzelRuntime.register`; ``replicas`` optionally
        overrides ``placement_replicas`` for this plan (e.g. hot plans on
        every worker).  With an arena, one throwaway compile learns the
        plan's post-Oven parameters; they decide the arena's shared slabs and
        which trained values travel by reference (their Object Store key,
        :func:`~repro.serving.worker.model_references`).  A worker that lacks
        one registers nothing and answers the ``missing`` keys; the model
        then goes to it once more, fully inline.  Without an arena, the
        model travels fully inline from the start.  The fully inline
        model is retained so the control plane can re-register the plan onto
        survivors after a worker death -- unless every worker hosts the plan
        already.
        """
        if not isinstance(pipeline, Pipeline):
            raise TypeError(
                "PretzelCluster.register ships trained Pipelines to workers; "
                f"got {type(pipeline).__name__} (compiled plans are built per worker)"
            )
        with self._lock:
            self._ensure_open()
            identifier = plan_id or f"plan-{len(self._plans)}-{pipeline.name}"
            if identifier in self._plans:
                raise ValueError(f"plan id {identifier!r} already registered")
            # Reserve the id before the (lock-free) worker round trips.
            self._plans[identifier] = {"workers": [], "engine": engine, "frame": None}
        registered_on: List[str] = []
        uncertain: Optional[str] = None
        # The plan's own transition lock serializes this registration against
        # a concurrent unregister / re-home of the same id while *other*
        # plans register in parallel; the arena claim protocol itself is the
        # short phase-locked section inside _put_shared.
        with self._plan_lock(identifier):
            try:
                # The one throwaway compile, run where the arena needs it: its
                # post-Oven parameters pick both the shared slabs and the
                # values sent by reference.  Without an arena the front door
                # compiles nothing, and every value travels inline.
                compiled = (
                    self._compiled_parameters(pipeline, stats) if self.arena is not None else []
                )
                arena_refs = self._share_parameters(identifier, compiled)
                placed = self.router.place(identifier, replicas)
                references = (
                    model_references(pipeline, compiled)
                    if self.config.enable_object_store
                    else []
                )
                model_b64 = encode_model(pipeline, stats, references)
                # The fully inline payload, encoded at most once: for a
                # worker that misses a reference, or for fail-over retention.
                inline_b64: Optional[str] = None if references else model_b64
                rebound = 0
                for worker_id in placed:
                    handle = self._workers.get(worker_id)
                    if handle is None:
                        # Evicted between placement and this round trip: the
                        # caller gets the same typed retryable contract as a
                        # dispatch racing a fail-over.
                        raise WorkerFailedError(
                            worker_id, identifier, "worker evicted during registration"
                        )
                    try:
                        reply = self._register_on(
                            handle, identifier, engine, arena_refs, model_b64
                        )
                        if "missing" in reply:
                            # The worker registered nothing; resend once,
                            # fully inline, as a fresh message.
                            if inline_b64 is None:
                                inline_b64 = encode_model(pipeline, stats)
                            self.inline_resends += 1
                            reply = self._register_on(
                                handle, identifier, engine, arena_refs, inline_b64
                            )
                    except (WorkerFailure, WorkerTimeout) as error:
                        # A timeout or connection loss leaves the worker's
                        # state unknown -- it may have completed the
                        # registration and mapped the slabs.  An application
                        # error (ok=False over a healthy channel) means it
                        # registered nothing.
                        if isinstance(error, WorkerTimeout) or error.connection_lost:
                            uncertain = worker_id
                        raise
                    registered_on.append(worker_id)
                    rebound += int(reply.get("rebound_arrays", 0))
                retain = len(placed) < len(self._workers)
                if retain and inline_b64 is None:
                    inline_b64 = encode_model(pipeline, stats)
                # A worker evicted *during* the round trips is filtered out
                # -- the fail-over that evicted it could not see this plan
                # yet, so reinstating the dead id here would poison later
                # teardown acks.
                with self._lock:
                    self._plans[identifier] = {
                        "workers": [w for w in registered_on if w in self._workers],
                        "engine": engine,
                        "replicas": replicas or self.config.placement_replicas,
                        # Retained only while it can ever be shipped again,
                        # to a worker that does not host the plan (fail-over
                        # re-homing).  A plan placed on every worker has no
                        # such worker -- membership only shrinks -- so its
                        # encoding is dropped, not kept for the life of the
                        # cluster.
                        "model_b64": inline_b64 if retain else None,
                        "arena_refs": arena_refs,
                        "shared_parameters": len(arena_refs),
                        "rebound_arrays": rebound,
                        # Each hosting worker compiled its schema from the
                        # same pipeline with the same function.
                        "frame": _frame_head(identifier, input_frame_schema(pipeline)),
                    }
            except BaseException:
                self._roll_back_registration(identifier, registered_on, uncertain)
                raise
        return identifier

    def _register_on(
        self,
        handle: _WorkerHandle,
        plan_id: str,
        engine: str,
        arena_refs: Dict[str, Dict[str, Any]],
        model_b64: str,
    ) -> Dict[str, Any]:
        """Send one register message; the reply may list ``missing`` keys."""
        return self._ask(
            handle,
            "register",
            plan_id=plan_id,
            model_b64=model_b64,
            engine=engine,
            arena_refs=arena_refs,
        )

    def _teardown_on_workers(
        self, worker_ids: Sequence[str], kind: str, **payload: Any
    ) -> bool:
        """Send a teardown-class message to each worker; True iff all acked.

        The liveness guard of the arena reclamation protocol, shared by
        unregister and registration rollback: a worker that fails the
        round trip blocks the free (returns False) *unless* its connection is
        gone and its process is provably dead -- a dead worker no longer maps
        anything.  Workers already evicted from the membership are skipped
        for the same reason: the eviction terminated them.
        """
        acked = True
        for worker_id in worker_ids:
            handle = self._workers.get(worker_id)
            if handle is None:
                continue
            try:
                self._ask(handle, kind, **payload)
            except (WorkerFailure, WorkerTimeout) as error:
                if handle.provably_dead(error):
                    continue
                acked = False
            except Exception:
                acked = False
        return acked

    def _roll_back_registration(
        self,
        plan_id: str,
        registered_on: List[str],
        uncertain: Optional[str],
    ) -> None:
        """Undo a partial registration so the id and placement stay reusable.

        The caller holds the plan's transition lock.  Mirrors
        :meth:`unregister`'s liveness guard: the plan's exclusive slabs are
        freed only when every worker that *may* host it (the ones that acked
        registration, plus the one whose round trip failed indeterminately)
        acknowledged the teardown or is provably dead -- a worker whose
        register timed out may well have completed it and still map the
        slabs, so freeing without its ack would recycle bytes under its
        adopted views.  Claims are noted incrementally by ``_put_shared``,
        so a failure mid-share releases whatever subset was claimed.
        """
        drop = sorted(self.lifecycle.exclusive_checksums(plan_id))
        targets = list(registered_on) + ([uncertain] if uncertain else [])
        acked = self._teardown_on_workers(
            targets, "unregister", plan_id=plan_id, drop_checksums=drop
        )
        self.router.forget(plan_id)
        with self._phase_lock:
            # Release + free are one phase-locked step: a checksum that lost
            # exclusivity to a concurrent registrant's dedup claim since the
            # drop-list snapshot is recomputed (and kept alive) here.
            freeable = self.lifecycle.release(plan_id)
            if self.arena is not None and acked:
                for checksum in freeable:
                    self.arena.free(checksum)
        with self._lock:
            self._plans.pop(plan_id, None)

    def unregister(self, plan_id: str) -> None:
        """Tear a plan down end to end: router, workers and arena slabs.

        The routing entry is forgotten first (no new dispatches), every
        hosting worker tears the plan down (its runtime releases the Object
        Store's operator/parameter holds and forgets the listed arena refs),
        and only after those acknowledgements does the owner free the plan's
        exclusively-referenced slabs -- the reference-counted protocol the
        arena's ``free`` liveness contract documents.  A slab shared with a
        surviving plan stays live until *its* last plan goes.
        """
        self._ensure_open()
        with self._plan_lock(plan_id):
            # Popping the plan under its transition lock serializes the
            # teardown against a concurrent fail-over re-homing of the same
            # plan: either that writer finished (and
            # info["workers"] includes the new host, which then acks below)
            # or it has not started yet (and will find the plan gone).
            # Other plans keep registering and serving in parallel.
            with self._lock:
                info = self._plans.pop(plan_id, None)
            if info is None:
                raise KeyError(f"plan {plan_id!r} is not registered")
            self.router.forget(plan_id)
            drop = sorted(self.lifecycle.exclusive_checksums(plan_id))
            # When a live worker fails to ack, freeing its slabs would
            # violate the liveness contract, so they are leaked instead (a
            # later plan with the same checksum re-adopts the slab and its
            # lifecycle will free it).
            acked = self._teardown_on_workers(
                info["workers"], "unregister", plan_id=plan_id, drop_checksums=drop
            )
            with self._phase_lock:
                # Freeability is decided under the phase lock, *after* the
                # teardown acks: a dedup claim recorded by a concurrent
                # registration since the drop-list snapshot keeps the slab
                # (release recomputes exclusivity here, not above).
                freeable = self.lifecycle.release(plan_id)
                if self.arena is not None and acked:
                    for checksum in freeable:
                        self.arena.free(checksum)
        self.control.unregistered_plans += 1

    def _share_parameters(
        self, plan_id: str, compiled: List[Parameter]
    ) -> Dict[str, Dict[str, Any]]:
        """Copy the plan's big array parameters into the arena (dedup'd).

        Returns the (checksum -> slab ref) table shipped with the register
        message.  ``compiled`` is the plan's parameter set from the
        throwaway compilation (:meth:`_compiled_parameters`), not the raw
        pipeline's: Oven's rewrites produce new arrays (the linear
        push-through rule splits a model's weights per concat branch), and
        only the post-rewrite checksums match what each worker's Object
        Store interns.  Dict parameters (n-gram vocabularies) stay private
        to each worker: raw shared bytes cannot back a hash table without
        rebuilding -- and therefore duplicating -- it.

        Under budget pressure (``ArenaExhaustedError``) the overflowing
        parameter stays worker-private and is counted in
        ``arena_overflows``; no other plan's slabs are touched.
        """
        refs: Dict[str, Dict[str, Any]] = {}
        for parameter in compiled:
            if parameter.checksum in refs:
                continue
            if not _shareable(parameter.value):
                continue
            if parameter.nbytes < self.config.shm_min_parameter_bytes:
                continue
            try:
                ref = self._put_shared(plan_id, parameter)
            except ArenaExhaustedError:
                # Smaller parameters may still fit a recycled slab; keep
                # scanning but record that sharing is no longer complete.
                self.arena_overflows += 1
                continue
            refs[parameter.checksum] = ref.to_dict()
        return refs

    def _put_shared(self, plan_id: str, parameter: Any) -> Any:
        """Claim one parameter's slab for ``plan_id`` (copy outside the lock).

        The arena claim protocol: a dedup hit on another plan's slab is only
        safe if the claim (``note_registered``) lands before an unregister
        decides that slab's exclusivity -- and both sides run under the
        global phase lock, so that decision is authoritative.  The expensive
        part (the memcpy + checksum of a first-time put) runs *outside* that
        lock: a brand-new slab has no lifecycle entry yet, so nothing can
        free it before the claim below.
        """
        assert self.arena is not None
        checksum = parameter.checksum
        if self.arena.get(checksum) is None:
            # First put of these bytes: do the copy without stalling other
            # plans' phase transitions.  May raise ArenaExhaustedError -> the
            # caller keeps the parameter private.
            self.arena.put_array(checksum, parameter.value)
        with self._phase_lock:
            # Probe-and-claim atomically: an unregister may have freed the
            # slab between the put above and here (we held no claim yet).
            # Re-putting under the phase lock is then a rare one-off copy,
            # never the common case.
            ref = self.arena.get(checksum)
            if ref is None:
                ref = self.arena.put_array(checksum, parameter.value)
            self.lifecycle.note_registered(plan_id, [checksum])
        return ref

    def _compiled_parameters(
        self, pipeline: Pipeline, stats: Optional[Dict[str, TransformStats]]
    ) -> List[Parameter]:
        """Parameters as each worker will intern them: after Oven's rewrites.

        Runs the same deterministic Flour -> optimize -> compile path the
        workers run, against a throwaway Object Store, purely to learn the
        post-rewrite parameter set (one extra compile per registration, on
        the registration path, never the serving path).  The set decides
        both the arena's shared slabs and which values the register message
        sends by reference.
        """
        from repro.core.flour import FlourContext, flour_from_pipeline
        from repro.core.object_store import ObjectStore
        from repro.core.oven.compiler import ModelPlanCompiler
        from repro.core.oven.optimizer import OvenOptimizer

        store = ObjectStore(enabled=True)
        context = FlourContext(object_store=store, name=pipeline.name)
        program = flour_from_pipeline(pipeline, context=context, stats=stats)
        stage_graph = OvenOptimizer().optimize(program.to_transform_graph())
        ModelPlanCompiler(object_store=store, config=self.config).compile(stage_graph)
        return store.parameters()

    # -- serving ---------------------------------------------------------------

    def predict(self, plan_id: str, record: Any, latency_sensitive: bool = False) -> Any:
        """Serve one prediction on the least-loaded worker hosting the plan.

        A float output returns bit-equal to :meth:`PretzelRuntime.predict`'s
        (a reply frame carries the raw float64).  Any other output rides the
        JSON envelope: floats still round-trip exactly (NaN payload bits
        aside), a ``DenseVector``/``SparseVector`` comes back as an equal
        vector of its type, and a numpy array or scalar as its ``tolist()``
        (no operator emits a bare array; a value with no JSON form fails
        with a ``TypeError`` reply).
        """
        return self._dispatch(plan_id, [record], latency_sensitive)[0]

    def predict_batch(
        self,
        plan_id: str,
        records: Sequence[Any],
        latency_sensitive: bool = False,
    ) -> List[Any]:
        """Serve a batch with one worker round trip (amortized framing)."""
        if not records:
            return []
        return self._dispatch(plan_id, list(records), latency_sensitive)

    def _dispatch(self, plan_id: str, records: List[Any], latency_sensitive: bool) -> List[Any]:
        """One predict round trip: admission, encode, wait, decode.

        Sampled or not, every request takes this line; a sampled one adds its
        trace bytes to the frame header and records the front door's
        ``request``/``admission``/``ipc``/``wire.encode`` spans.
        """
        if self._closed:
            raise RuntimeError("the cluster has been shut down")
        info = self._plans.get(plan_id)
        if info is None:
            raise KeyError(f"plan {plan_id!r} is not registered")
        tracer = self._tracer
        # The cluster front door is where sampling happens: 1-in-N dispatches
        # get a TraceContext whose root span id every hop parents under.
        trace = tracer.maybe_trace()
        started = time.perf_counter()
        try:
            # May raise BackpressureError (saturated) or WorkerFailedError
            # (every placed worker evicted mid-fail-over) -- both typed and
            # retryable.
            try:
                worker_id = self.router.acquire(plan_id)
            except BaseException as error:
                if trace is not None:
                    tracer.record(
                        trace.trace_id,
                        "admission",
                        time.perf_counter() - started,
                        parent_span_id=trace.parent_span_id,
                        attributes={"shed": True, "error": type(error).__name__},
                    )
                raise
            try:
                if trace is not None:
                    ipc_started = time.perf_counter()
                    tracer.record(
                        trace.trace_id,
                        "admission",
                        ipc_started - started,
                        parent_span_id=trace.parent_span_id,
                        attributes={"shed": False, "worker_id": worker_id},
                    )
                handle = self._workers.get(worker_id)
                if handle is None:
                    raise WorkerFailedError(worker_id, plan_id, "worker evicted mid-dispatch")
                seq = next(self._msg_ids)
                msg_id = f"{self._msg_prefix}:{seq}"
                flags = FLAG_LATENCY_SENSITIVE if latency_sensitive else 0
                wire = trace_bytes = None
                if trace is not None:
                    # Pre-mint the ipc span id so the worker's spans can
                    # parent under it.
                    ipc_span_id = tracer.new_span_id()
                    wire = trace.child(ipc_span_id).to_wire()
                    trace_bytes = pack_trace_wire(wire)
                    flags |= FLAG_TRACED
                frame = info["frame"]
                body = frame[0](records) if frame is not None else None
                if body is not None and (trace is None or trace_bytes is not None):
                    encoded = pack_predict_frame(
                        self._msg_prefix_bytes,
                        seq,
                        flags,
                        frame[1],
                        len(records),
                        frame[2],
                        frame[3],
                        trace_bytes or b"",
                        body,
                    )
                else:
                    # Records the plan's schema cannot carry ride the envelope.
                    message = {
                        "plan_id": plan_id,
                        "records": records,
                        "latency_sensitive": latency_sensitive,
                        "type": "predict",
                        "msg_id": msg_id,
                    }
                    if wire is not None:
                        message["trace"] = wire
                    encoded = serialize_message(message)
                if trace is not None:
                    tracer.record(
                        trace.trace_id,
                        "wire.encode",
                        time.perf_counter() - ipc_started,
                        parent_span_id=ipc_span_id,
                        attributes={"bytes": len(encoded), "worker_id": worker_id},
                    )
                reply = handle.round_trip(
                    encoded, msg_id, "predict", self.config.worker_timeout_seconds
                )
                if trace is not None:
                    tracer.record(
                        trace.trace_id,
                        "ipc",
                        time.perf_counter() - ipc_started,
                        span_id=ipc_span_id,
                        parent_span_id=trace.parent_span_id,
                        attributes={"worker_id": worker_id},
                    )
            except (WorkerFailure, WorkerTimeout) as error:
                # A lost channel or a dead process is a death verdict; a
                # timeout from a live worker, or an error it reported, is not.
                lost = isinstance(error, WorkerFailure) and error.connection_lost
                if lost or not handle.process_alive():
                    self.control.worker_failed(worker_id, str(error))
                    raise WorkerFailedError(worker_id, plan_id, str(error)) from error
                raise
            finally:
                self.router.release(worker_id)
            # Piggybacked heartbeat: any successful reply proves liveness.
            self.control.detector.record_reply(worker_id)
            return reply["outputs"]
        finally:
            elapsed = time.perf_counter() - started
            self._request_latency.observe(elapsed)
            if trace is not None:
                tracer.record(
                    trace.trace_id,
                    "request",
                    elapsed,
                    span_id=trace.parent_span_id,
                    attributes={"plan_id": plan_id, "records": len(records)},
                )

    # -- fail-over ---------------------------------------------------------------

    def _on_worker_dead(self, worker_id: str) -> int:
        """Evict a dead worker and kick off re-homing of its plans.

        Called (exactly once per worker) by the control plane after a death
        verdict.  The eviction itself is synchronous -- dispatch must stop
        routing to the dead worker immediately -- while the re-registration
        round trips run on a background fail-over thread, so the client
        whose request discovered the death gets its retryable error at once
        instead of waiting out up to one worker timeout per affected plan.
        Returns the number of plans queued for re-homing.
        """
        handle = self._workers.pop(worker_id, None)
        if handle is None:
            return 0
        self._evicted_handles[worker_id] = handle
        handle.close()
        if handle.process.is_alive():
            # Make the death certain before any reclamation can consult it:
            # a terminated-but-not-yet-exited process still maps the arena.
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        self.router.evict_worker(worker_id)
        with self._lock:
            affected: List[str] = []
            for plan_id, info in self._plans.items():
                if worker_id in info["workers"]:
                    info["workers"] = [w for w in info["workers"] if w != worker_id]
                    affected.append(plan_id)
        if not affected:
            return 0
        threading.Thread(
            target=self._rehome_plans,
            args=(affected,),
            name=f"pretzel-failover-{worker_id}",
            daemon=True,
        ).start()
        return len(affected)

    def _rehome_plans(self, plan_ids: List[str]) -> None:
        """Fail-over thread body: re-register plans that lost a replica."""
        for plan_id in plan_ids:
            try:
                self._rehome_one(plan_id)
            except Exception:  # pragma: no cover - defensive: keep re-homing
                continue

    def _rehome_one(self, plan_id: str) -> bool:
        """Top a plan's placement back up to its replica count.

        The whole re-home holds the plan's transition lock, serializing it
        against a concurrent unregister or another worker's fail-over
        touching the *same* plan -- so the arena refs the re-register
        messages carry cannot be freed mid-flight, and the worker-list
        update cannot lose a concurrent writer's ack.  Re-homes of different
        plans run in parallel.
        """
        with self._plan_lock(plan_id):
            with self._lock:
                live = self._plans.get(plan_id)
                if live is None or "model_b64" not in live:
                    # Unregistered while queued, or still registering (that
                    # register call will roll back or finish on the
                    # survivors it reached).
                    return False
                info = dict(live)
            survivors = [w for w in info["workers"] if w in self._workers]
            desired = min(
                int(info.get("replicas") or self.config.placement_replicas),
                max(len(self._workers), 1),
            )
            candidates: List[str] = []
            if (
                info["model_b64"] is not None  # None: every worker hosted it
                and self.router.ring is not None
                and len(survivors) < desired
            ):
                for candidate in self.router.ring.placement(plan_id, desired):
                    if candidate not in survivors and candidate in self._workers:
                        candidates.append(candidate)
                        if len(survivors) + len(candidates) >= desired:
                            break
            gained = False
            # The retained payload is fully inline: a survivor may hold none
            # of the plan's values.
            for candidate in candidates:
                candidate_handle = self._workers.get(candidate)
                if candidate_handle is None:
                    continue
                try:
                    self._register_on(
                        candidate_handle,
                        plan_id,
                        info["engine"],
                        dict(info.get("arena_refs") or {}),
                        info["model_b64"],
                    )
                except (WorkerFailure, WorkerTimeout):
                    continue  # this survivor is struggling too; skip it
                survivors.append(candidate)
                gained = True
            if gained:
                # Counted before the placement write so stats observed right
                # after a successful retry already include it.
                self.control.plans_failed_over += 1
            with self._lock:
                if plan_id in self._plans:
                    self._plans[plan_id]["workers"] = survivors
            self.router.set_placement(plan_id, survivors)
            return gained

    # -- introspection ----------------------------------------------------------

    def plan_ids(self) -> List[str]:
        with self._lock:
            return list(self._plans)

    def placement(self, plan_id: str) -> List[str]:
        """Worker ids hosting ``plan_id``."""
        with self._lock:
            if plan_id not in self._plans:
                raise KeyError(f"plan {plan_id!r} is not registered")
            return list(self._plans[plan_id]["workers"])

    def worker_ids(self) -> List[str]:
        return list(self._workers)

    def stats(self) -> Dict[str, Any]:
        """Cluster-wide telemetry: router + arena + control plane + workers.

        ``workers[id]["stats"]`` is the full ``PretzelRuntime.stats()`` of
        that worker (including ``object_store`` hit/miss/eviction counters,
        ``stage_batching`` and the scheduler's queue depths), so per-worker
        cache health is visible from one call.
        ``control_plane`` carries fail-over/unregister counters, per-worker
        heartbeat ages and liveness verdicts.
        """
        self._ensure_open()
        workers: Dict[str, Any] = {}
        for worker_id, handle in list(self._workers.items()):
            try:
                reply = self._ask(handle, "stats")
            except (WorkerFailure, WorkerTimeout) as error:
                if handle.provably_dead(error):
                    self.control.worker_failed(worker_id, str(error))
                workers[worker_id] = {"error": str(error)}
                continue
            workers[worker_id] = {
                "stats": reply["stats"],
                "served_predictions": reply["served_predictions"],
                "failed_requests": reply["failed_requests"],
                "memory_bytes": reply["memory_bytes"],
                "arena": reply["arena"],
                "tracing": reply.get("tracing"),
                "registration": reply.get("registration"),
            }
        live = [entry for entry in workers.values() if "stats" in entry]
        router_stats = self.router.stats()
        arena_stats = self.arena.stats() if self.arena is not None else None
        total_worker_bytes = sum(entry["memory_bytes"] for entry in live)
        result: Dict[str, Any] = {
            "plans": len(self._plans),
            "num_workers": len(self._workers),
            "served_predictions": sum(w["served_predictions"] for w in live),
            "failed_requests": sum(w["failed_requests"] for w in live),
            "shed": router_stats["shed"],
            "router": router_stats,
            "arena": arena_stats,
            "arena_overflows": self.arena_overflows,
            "inline_resends": self.inline_resends,
            "control_plane": self.control.stats(),
            "wire": self.wire_stats(),
            "memory_bytes": total_worker_bytes
            + (arena_stats["used_bytes"] if arena_stats else 0),
            "workers": workers,
        }
        if self.config.enable_profiling:
            # The cluster *process*'s contended wait on the named locks
            # (arena.meta, cluster.phase, cluster.plan, cluster.worker-channel).
            # Each worker's own profile rides in workers[id]["stats"]["profile"].
            result["profile"] = profiling.snapshot()
        if self.config.enable_tracing:
            # The front door's sampler state; each worker's own flight
            # recorder state rides in workers[id]["tracing"] (and the spans
            # themselves are harvested by trace_dump()).
            result["tracing"] = observability.tracer().stats()
        return result

    def wire_stats(self) -> Dict[str, int]:
        """Bytes and message counts on the cluster<->worker wire (no round trips).

        ``binary_messages`` counts requests that travelled as a data-plane
        predict frame (:func:`repro.net.pack_predict_frame`) and
        ``binary_replies`` the replies that came back as reply frames;
        ``json_messages`` are JSON envelopes: control messages and
        non-conforming predicts.  Byte counts cover both directions of every
        request this cluster generation sent, before transport framing.
        """
        handles = list(self._workers.values()) + list(self._evicted_handles.values())
        return {
            "bytes_sent": sum(handle.bytes_sent for handle in handles),
            "bytes_received": sum(handle.bytes_received for handle in handles),
            "binary_messages": sum(handle.binary_messages for handle in handles),
            "json_messages": sum(handle.json_messages for handle in handles),
            "binary_replies": sum(handle.binary_replies for handle in handles),
        }

    # -- observability harvest ---------------------------------------------------

    def trace_dump(self, drain: bool = False) -> List[Dict[str, Any]]:
        """Every buffered span: this process's flight recorder + all workers'.

        One ``traces`` round trip per worker; a worker that cannot answer is
        simply absent from the dump (a flight recorder is best-effort by
        contract).  Spans are sorted by (trace id, start), so the spans of
        one trace -- front-door ``request``/``admission``/``ipc`` spans from
        the cluster process, ``worker.receive``/``queue.wait``/``stage.
        execute``/``reply.encode`` spans from the serving process -- come out
        adjacent and roughly in causal order.
        """
        self._ensure_open()
        spans = observability.tracer().dump(drain=drain)
        for worker_id, handle in list(self._workers.items()):
            try:
                reply = self._ask(handle, "traces", drain=drain)
            except (WorkerFailure, WorkerTimeout):
                continue
            spans.extend(reply.get("spans") or [])
        spans.sort(key=lambda span: (span.get("trace_id", ""), span.get("start", 0.0)))
        return spans

    def trace_breakdown(self, drain: bool = False) -> Dict[str, Dict[str, Any]]:
        """The fig5 per-stage latency breakdown, from live sampled traces.

        Folds the ``stage.execute`` spans of :meth:`trace_dump` into
        per-signature time shares -- the paper's figure, reconstructed from
        production traffic instead of an offline harness.
        """
        return observability.trace_breakdown(self.trace_dump(drain=drain))

    def metrics(self) -> Dict[str, Any]:
        """The unified metrics view: every worker's registry merged into ours.

        Counters and gauges add; histograms share fixed log2 buckets, so the
        merge is exact.  Workers that cannot answer contribute nothing.
        """
        self._ensure_open()
        merged = observability.registry().snapshot()
        for worker_id, handle in list(self._workers.items()):
            try:
                reply = self._ask(handle, "metrics")
            except (WorkerFailure, WorkerTimeout):
                continue
            merged = observability.merge_snapshots(merged, reply.get("metrics"))
        return merged

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of :meth:`metrics`."""
        return observability.to_prometheus(self.metrics())

    def memory_bytes(self) -> int:
        """Cluster footprint: every worker's owned bytes + the arena once.

        Workers exclude arena-adopted parameters from their own accounting
        (see :meth:`ObjectStore.memory_bytes`), so a weight shared by N
        workers contributes its bytes exactly once -- the sub-linear scaling
        the serving tier exists for.  Unregistering a plan shrinks this
        number: workers release its private state and the arena stops
        counting its exclusively-referenced (now recycled) slabs.
        """
        self._ensure_open()
        total = 0
        for worker_id, handle in list(self._workers.items()):
            try:
                reply = self._ask(handle, "memory")
            except (WorkerFailure, WorkerTimeout) as error:
                if handle.provably_dead(error):
                    self.control.worker_failed(worker_id, str(error))
                continue
            total += int(reply["memory_bytes"])
        if self.arena is not None:
            total += self.arena.used_bytes
        return total

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker (graceful message, then join, then terminate)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._tear_down(graceful=True)

    def _tear_down(self, graceful: bool) -> None:
        control = getattr(self, "control", None)
        if control is not None:
            control.stop()
        grace = min(5.0, self.config.worker_timeout_seconds)
        for handle in self._workers.values():
            if graceful and handle.process_alive():
                try:
                    handle.request(self._message("shutdown"), grace)
                except Exception:
                    pass  # the join/terminate ladder below still applies
        for handle in self._workers.values():
            handle.process.join(timeout=grace)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.close()
        if self.arena is not None:
            self.arena.close()

    def __enter__(self) -> "PretzelCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- internals -----------------------------------------------------------------

    def _message(self, kind: str, **payload: Any) -> Dict[str, Any]:
        payload["type"] = kind
        payload["msg_id"] = f"{self._msg_prefix}:{next(self._msg_ids)}"
        return payload

    def _ask(self, handle: _WorkerHandle, kind: str, **payload: Any) -> Dict[str, Any]:
        """One control message's round trip, bounded by ``worker_timeout_seconds``."""
        return handle.request(self._message(kind, **payload), self.config.worker_timeout_seconds)

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("the cluster has been shut down")
