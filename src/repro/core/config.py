"""Configuration of the PRETZEL runtime and its optimizations.

Every white-box optimization the paper evaluates can be toggled here, which
is how the ablation benchmarks (Section 5.2.1, Figure 8's "no Object Store"
series, Section 5.4.1's reservation scheduling) are produced.  The one
exception is Section 5.2.1's vector-pooling ablation: the kernels allocate
their own outputs, so there is no pool to switch off.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PretzelConfig"]


@dataclass
class PretzelConfig:
    """Runtime-wide knobs.

    Attributes
    ----------
    enable_object_store:
        Share identical parameters/operators across model plans.  Disabling
        this reproduces the "Pretzel (no ObjStore)" series of Figure 8.
    enable_aot_compilation:
        Compile physical stages ahead of time (at registration).  When off,
        the first prediction of each plan pays stage compilation, inflating
        cold latency (Section 5.2.1).
    enable_subplan_materialization:
        Cache outputs of physical stages shared by multiple plans (Figure 10).
    materialization_budget_bytes:
        LRU budget of the materialization cache inside the Object Store.
    num_executors:
        Number of executor workers the batch engine schedules over.
    enable_stage_batching:
        Let a free executor pull a *batch* of queued stage events whose next
        stage shares the same physical-stage signature (cross-plan stage-level
        batching) instead of a single event.  Latency-sensitive requests are
        never coalesced, and reserved executors only batch within their own
        private queue.
    max_stage_batch_size:
        Upper bound on the number of stage events coalesced into one
        :class:`~repro.core.scheduler.StageBatch` (the cap of every pull).
    num_workers:
        Worker processes of the multi-process serving tier
        (:class:`~repro.serving.cluster.PretzelCluster`).  Each worker hosts a
        full :class:`~repro.core.runtime.PretzelRuntime` and talks to the
        cluster over its end of a local ``socketpair()`` -- the tier's one
        transport; the single-process runtime ignores this knob.
    shm_budget_bytes:
        Size of the shared-memory arena backing deduplicated parameter
        buffers across worker processes.  ``0`` disables the arena (workers
        keep private parameter copies, the "no shared arena" ablation).  A
        parameter that does not fit stays private to its plan's workers and
        is counted in the cluster's ``arena_overflows``; registered plans
        are never evicted to make room.
    shm_min_parameter_bytes:
        Parameters below this size are not worth a shared-memory slab (the
        slab header and page granularity would dominate); they stay private.
    max_inflight_per_worker:
        Admission control: the router sheds load (raises
        :class:`~repro.serving.router.BackpressureError`) instead of queueing
        more than this many in-flight dispatches on one worker.
    placement_replicas:
        How many workers each plan is placed on by the cluster's
        consistent-hash ring (capped at ``num_workers``).
    worker_timeout_seconds:
        Upper bound on any single cluster <-> worker round trip (register,
        predict chunk, stats, shutdown); a worker that stays silent longer is
        treated as failed so callers never hang on a stuck process.  The
        control plane also uses it as the death deadline: a worker silent
        past this long (despite pings) is declared dead, evicted from every
        placement, and its plans are re-registered onto the survivors.
    heartbeat_interval_seconds:
        Control-plane heartbeat cadence.  Every worker reply piggybacks as a
        heartbeat; only workers idle longer than this receive an explicit
        ping.
    enable_profiling:
        Surface the named-lock wait registry (:mod:`repro.profiling`) as
        ``stats()["profile"] == {"locks": {...}}`` in ``runtime.stats()`` and
        ``cluster.stats()``.  It starts no thread; the locks record contended
        wait either way.  Per-stage time comes from the tracer's
        ``stage.execute`` spans (``enable_tracing``).
    enable_tracing:
        Run the distributed request tracer (:mod:`repro.observability`):
        the front door head-samples 1-in-``trace_sample_rate`` requests,
        threads a :class:`~repro.observability.tracing.TraceContext` through
        the wire envelope, and records typed spans at every hop into a
        per-process flight recorder.  Surfaced as ``stats()["tracing"]``,
        ``cluster.trace_dump()`` and ``cluster.trace_breakdown()``.
    trace_sample_rate:
        Head-based sampling ratio: trace 1 in N front-door requests
        (``1`` traces everything -- tests and demos; the default keeps the
        unsampled path to one counter increment and a modulo).
    trace_buffer_size:
        Capacity of each process's span ring buffer (the flight recorder).
        Oldest spans are evicted first; ``trace_dump`` harvests before
        eviction matters at the default prediction rates.
    """

    enable_object_store: bool = True
    enable_aot_compilation: bool = True
    enable_subplan_materialization: bool = False
    materialization_budget_bytes: int = 32 * 1024 * 1024
    num_executors: int = 2
    enable_stage_batching: bool = False
    max_stage_batch_size: int = 16
    num_workers: int = 2
    shm_budget_bytes: int = 64 * 1024 * 1024
    shm_min_parameter_bytes: int = 4096
    max_inflight_per_worker: int = 32
    placement_replicas: int = 2
    worker_timeout_seconds: float = 60.0
    heartbeat_interval_seconds: float = 5.0
    enable_profiling: bool = True
    enable_tracing: bool = True
    trace_sample_rate: int = 64
    trace_buffer_size: int = 2048

    def clone(self, **overrides: object) -> "PretzelConfig":
        """Copy the config with some fields replaced (used by ablation benches)."""
        values = self.__dict__.copy()
        values.update(overrides)
        return PretzelConfig(**values)  # type: ignore[arg-type]
