"""The multi-process serving tier: shard PretzelRuntimes, share parameters.

This package crosses the process boundary the single-process runtime is
capped by (the GIL) while preserving PRETZEL's white-box parameter sharing:

* :mod:`repro.serving.shm_store` -- a checksum-deduplicated slab allocator
  over ``multiprocessing.shared_memory`` so N workers map one copy of each
  shared weight;
* :mod:`repro.serving.worker` -- a worker process hosting a full
  :class:`~repro.core.runtime.PretzelRuntime` behind a framed message loop
  over its end of a local ``socketpair()``;
* :mod:`repro.serving.router` -- consistent-hash plan placement,
  least-in-flight dispatch and admission control;
* :mod:`repro.serving.control` -- the control plane: the socket transport,
  heartbeat failure detection with fail-over, and the reference-counted plan
  lifecycle that reclaims shared-memory arena slabs;
* :mod:`repro.serving.cluster` -- the :class:`PretzelCluster` facade that
  mirrors the runtime API.
"""

from repro.serving.cluster import PretzelCluster, WorkerFailure, WorkerTimeout
from repro.serving.control import (
    ControlPlane,
    FailureDetector,
    PlanLifecycle,
    SocketTransport,
    Transport,
    WorkerFailedError,
)
from repro.serving.router import BackpressureError, ConsistentHashRing, ShardRouter
from repro.serving.shm_store import (
    ArenaClient,
    ArenaExhaustedError,
    ArenaRef,
    SharedMemoryArena,
)
from repro.serving.worker import ServingWorker, decode_model, encode_model, worker_main

__all__ = [
    "PretzelCluster",
    "WorkerFailure",
    "WorkerTimeout",
    "WorkerFailedError",
    "BackpressureError",
    "ConsistentHashRing",
    "ShardRouter",
    "ControlPlane",
    "FailureDetector",
    "PlanLifecycle",
    "Transport",
    "SocketTransport",
    "ArenaClient",
    "ArenaExhaustedError",
    "ArenaRef",
    "SharedMemoryArena",
    "ServingWorker",
    "decode_model",
    "encode_model",
    "worker_main",
]
