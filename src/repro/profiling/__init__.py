"""Named-lock wait profiling, cheap enough to stay on.

:class:`~repro.profiling.locks.ProfiledLock` /
:class:`~repro.profiling.locks.ProfiledRLock` are named locks whose
*contended* acquisitions record wait time into the process-global
:data:`GLOBAL_LOCK_REGISTRY`; the uncontended path pays one extra
non-blocking acquire.  The registry surfaces as ``runtime.stats()["profile"]``
and ``cluster.stats()["profile"]`` (gated by the ``enable_profiling`` config
knob) as ``{"locks": {...}}``.

Per-stage time is not measured here: the ``stage.execute`` spans of
:mod:`repro.observability` are the one per-stage time instrument
(``cluster.trace_breakdown()``).  Nothing in this package starts a thread.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.profiling.locks import (
    GLOBAL_LOCK_REGISTRY,
    LockWaitRegistry,
    ProfiledLock,
    ProfiledRLock,
)

__all__ = [
    "ProfiledLock",
    "ProfiledRLock",
    "LockWaitRegistry",
    "GLOBAL_LOCK_REGISTRY",
    "stop",
    "reset",
    "snapshot",
]


def stop() -> None:
    """Do nothing; kept only for its two remaining callers.

    ``benchmarks/harness/workloads.py`` (``tear_down``) and
    ``benchmarks/harness/layers.py`` (``run_traced``) call it from when this
    package ran a background sampler.  Delete it once they stop calling it.
    """


def reset() -> None:
    """Zero every named lock's wait accumulators."""
    GLOBAL_LOCK_REGISTRY.reset()


def snapshot() -> Dict[str, Any]:
    """The ``stats()["profile"]`` payload: lock-wait telemetry."""
    return {"locks": GLOBAL_LOCK_REGISTRY.snapshot()}
