"""Always-on production profiling: sampled self-time + named-lock wait.

ROADMAP item 4's observability half: the runtime should see its own
hotspots.  Two complementary instruments, both cheap enough to stay on:

* :class:`~repro.profiling.sampler.SamplingProfiler` -- a scalene-style
  background sampler (no signals, no ``sys.setprofile``) attributing
  self-time to pipeline stages and top-of-stack functions.
* :class:`~repro.profiling.locks.ProfiledLock` /
  :class:`~repro.profiling.locks.ProfiledRLock` -- named locks whose
  *contended* acquisitions record wait time into a process-global registry;
  the uncontended path pays one extra non-blocking acquire.

Both surface through ``runtime.stats()["profile"]`` and
``cluster.stats()["profile"]`` (enabled by default via the
``enable_profiling`` config knob).  The module-level helpers manage one
process-global sampler so every runtime in the process shares a single
sampler thread.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.profiling.locks import (
    GLOBAL_LOCK_REGISTRY,
    LockWaitRegistry,
    ProfiledLock,
    ProfiledRLock,
)
from repro.profiling.sampler import DEFAULT_INTERVAL_SECONDS, SamplingProfiler

__all__ = [
    "SamplingProfiler",
    "ProfiledLock",
    "ProfiledRLock",
    "LockWaitRegistry",
    "GLOBAL_LOCK_REGISTRY",
    "ensure_started",
    "stop",
    "reset",
    "snapshot",
    "profiler",
]

_GLOBAL_PROFILER = SamplingProfiler()
_MARKERS_REGISTERED = False


def _register_default_markers(instance: SamplingProfiler) -> None:
    """Teach the sampler the engine's stage entry points (idempotent).

    Imported lazily: the engines module must not depend on profiling, and
    profiling must stay importable without pulling the full engine stack in
    (e.g. for lock-only users).
    """
    global _MARKERS_REGISTERED
    if _MARKERS_REGISTERED:
        return
    from repro.core import engines

    # Every stage entry point binds the shared PhysicalStage to a local named
    # ``physical`` whose ``full_signature`` is the stage identity the rest of
    # the telemetry (batching, backlog) already reports under.
    instance.register_stage_marker(engines.execute_plan_stage, "physical")
    instance.register_stage_marker(engines.execute_plan_stage_batch, "physical")
    instance.register_stage_marker(engines.execute_plan_stage_columns, "physical")
    _MARKERS_REGISTERED = True


def profiler() -> SamplingProfiler:
    """The process-global sampler instance."""
    return _GLOBAL_PROFILER


def ensure_started() -> SamplingProfiler:
    """Start the process-global sampler if it is not already running.

    It samples every :data:`DEFAULT_INTERVAL_SECONDS`.
    """
    _register_default_markers(_GLOBAL_PROFILER)
    _GLOBAL_PROFILER.start()
    return _GLOBAL_PROFILER


def stop() -> None:
    """Stop the process-global sampler (counters kept; restartable)."""
    _GLOBAL_PROFILER.stop()


def reset() -> None:
    """Zero the sampler counters and every named lock's wait accumulators."""
    _GLOBAL_PROFILER.reset()
    GLOBAL_LOCK_REGISTRY.reset()


def snapshot() -> Dict[str, Any]:
    """The ``stats()["profile"]`` payload: sampler + lock-wait telemetry."""
    return {
        "sampler": _GLOBAL_PROFILER.snapshot(),
        "locks": GLOBAL_LOCK_REGISTRY.snapshot(),
    }
